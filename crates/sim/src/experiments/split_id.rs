//! Tables 8–10: split I/D vs unified first-level hit ratios.
//!
//! For every trace and size pair, the V-R hierarchy is run once with a
//! unified first level and once split into equal-size I and D halves; the
//! hit ratios are reported per access class, as in the paper's tables.

use vrcache_cache::stats::{AccessKind, CacheStats};
use vrcache_trace::presets::TracePreset;

use super::{paper_config, Cell, ExperimentCtx, LARGE_PAIRS};
use crate::report::{ratio, TableReport};
use crate::system::HierarchyKind;

/// Split-vs-unified hit ratios for one (trace, size pair) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCell {
    /// Data-read hit ratio, split organization.
    pub read_split: f64,
    /// Data-read hit ratio, unified.
    pub read_unified: f64,
    /// Data-write hit ratio, split.
    pub write_split: f64,
    /// Data-write hit ratio, unified.
    pub write_unified: f64,
    /// Instruction hit ratio, split.
    pub instr_split: f64,
    /// Instruction hit ratio, unified.
    pub instr_unified: f64,
    /// Overall hit ratio, split.
    pub overall_split: f64,
    /// Overall hit ratio, unified.
    pub overall_unified: f64,
}

fn class_ratios(stats: &CacheStats) -> (f64, f64, f64, f64) {
    (
        stats.class(AccessKind::DataRead).hit_ratio(),
        stats.class(AccessKind::DataWrite).hit_ratio(),
        stats.class(AccessKind::InstrFetch).hit_ratio(),
        stats.hit_ratio(),
    )
}

/// Measures the split-vs-unified cells of each of `presets` over the
/// standard size pairs: one `Vec` per preset, in size-pair order.
pub fn split_grid(ctx: &mut ExperimentCtx, presets: &[TracePreset]) -> Vec<Vec<SplitCell>> {
    let cells: Vec<Cell> = presets
        .iter()
        .flat_map(|&preset| {
            LARGE_PAIRS.iter().flat_map(move |&pair| {
                let unified = paper_config(pair);
                let split = unified.clone().with_split_l1();
                [unified, split].map(|cfg| Cell::new(preset, cfg, HierarchyKind::Vr))
            })
        })
        .collect();
    let runs = ctx.run_cells(&cells);
    runs.chunks(2 * LARGE_PAIRS.len())
        .map(|row| {
            row.chunks(2)
                .map(|pair| {
                    let (ru, wu, iu, ou) = class_ratios(&pair[0].summary.l1);
                    let (rs, ws, is, os) = class_ratios(&pair[1].summary.l1);
                    SplitCell {
                        read_split: rs,
                        read_unified: ru,
                        write_split: ws,
                        write_unified: wu,
                        instr_split: is,
                        instr_unified: iu,
                        overall_split: os,
                        overall_unified: ou,
                    }
                })
                .collect()
        })
        .collect()
}

/// Renders one trace's table (Table 8 for thor, 9 for pops, 10 for abaqus).
pub fn render(preset: TracePreset, table_no: u32, cells: &[SplitCell]) -> TableReport {
    let mut headers = vec![preset.name().to_string()];
    for pair in LARGE_PAIRS {
        headers.push(super::pair_label(pair));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = TableReport::new(
        format!("Table {table_no}: hit ratios of level 1 caches for the {preset} trace"),
        header_refs,
    );
    type Extract = fn(&SplitCell) -> f64;
    let rows: [(&str, Extract); 8] = [
        ("data read split", |c| c.read_split),
        ("unified", |c| c.read_unified),
        ("data write split", |c| c.write_split),
        ("unified", |c| c.write_unified),
        ("instruction split", |c| c.instr_split),
        ("unified", |c| c.instr_unified),
        ("overall split", |c| c.overall_split),
        ("unified", |c| c.overall_unified),
    ];
    for (label, f) in rows {
        let mut row = vec![label.to_string()];
        for c in cells {
            row.push(ratio(f(c)));
        }
        t.row(row);
    }
    t
}

/// Regenerates Tables 8, 9 and 10.
pub fn tables_8_9_10(ctx: &mut ExperimentCtx) -> Vec<TableReport> {
    let tables = [
        (TracePreset::Thor, 8),
        (TracePreset::Pops, 9),
        (TracePreset::Abaqus, 10),
    ];
    let grid = split_grid(ctx, &tables.map(|(preset, _)| preset));
    tables
        .iter()
        .zip(&grid)
        .map(|(&(preset, no), cells)| render(preset, no, cells))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_close_to_unified() {
        let mut ctx = ExperimentCtx::new(0.01);
        let cells = split_grid(&mut ctx, &[TracePreset::Pops]).remove(0);
        assert_eq!(cells.len(), 3);
        for (i, c) in cells.iter().enumerate() {
            // The paper's point: split and unified are very close. Allow a
            // few points of slack at reduced trace scale.
            assert!(
                (c.overall_split - c.overall_unified).abs() < 0.06,
                "pair {i}: split {} vs unified {}",
                c.overall_split,
                c.overall_unified
            );
            for v in [
                c.read_split,
                c.read_unified,
                c.write_split,
                c.write_unified,
                c.instr_split,
                c.instr_unified,
            ] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn render_layout_matches_paper() {
        let cells = vec![
            SplitCell {
                read_split: 0.924,
                read_unified: 0.913,
                write_split: 0.952,
                write_unified: 0.946,
                instr_split: 0.957,
                instr_unified: 0.930,
                overall_split: 0.942,
                overall_unified: 0.925,
            };
            3
        ];
        let t = render(TracePreset::Thor, 8, &cells);
        assert_eq!(t.len(), 8);
        assert!(t.title().contains("Table 8"));
        assert_eq!(t.cell(0, 0), Some("data read split"));
        assert_eq!(t.cell(0, 1), Some(".924"));
    }
}
