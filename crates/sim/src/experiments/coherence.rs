//! Tables 11–13: coherence messages reaching the first-level cache, and
//! the Section 2 inclusion-invalidation count.
//!
//! For every trace and size pair, the same trace runs on all three
//! organizations and each CPU's first-level coherence-message count is
//! reported: V-R and R-R-with-inclusion filter through the second level;
//! R-R-without-inclusion interrogates the first level on every foreign
//! transaction.

use vrcache::config::HierarchyConfig;
use vrcache_cache::geometry::CacheGeometry;
use vrcache_mem::page::PageSize;
use vrcache_trace::presets::TracePreset;

use super::{paper_cells, Cell, ExperimentCtx, LARGE_PAIRS};
use crate::report::TableReport;
use crate::system::HierarchyKind;

/// Per-CPU coherence message counts for one (trace, size pair) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceCell {
    /// Per-CPU counts for the V-R organization.
    pub vr: Vec<u64>,
    /// Per-CPU counts for R-R with inclusion.
    pub rr_incl: Vec<u64>,
    /// Per-CPU counts for R-R without inclusion.
    pub rr_no_incl: Vec<u64>,
}

/// The organizations each cell compares, in cell order.
const KINDS: [HierarchyKind; 3] = [
    HierarchyKind::Vr,
    HierarchyKind::RrInclusive,
    HierarchyKind::RrNonInclusive,
];

/// Measures the coherence-message cells of each of `presets` over the
/// standard size pairs: one `Vec` per preset, in size-pair order.
pub fn coherence_grid(ctx: &mut ExperimentCtx, presets: &[TracePreset]) -> Vec<Vec<CoherenceCell>> {
    let cells = paper_cells(presets, &LARGE_PAIRS, &KINDS);
    let counts = |run: &super::KindRun| -> Vec<u64> {
        run.events
            .iter()
            .map(|e| e.l1_coherence_messages())
            .collect()
    };
    let runs = ctx.run_cells(&cells);
    runs.chunks(KINDS.len() * LARGE_PAIRS.len())
        .map(|row| {
            row.chunks(KINDS.len())
                .map(|pair| CoherenceCell {
                    vr: counts(&pair[0]),
                    rr_incl: counts(&pair[1]),
                    rr_no_incl: counts(&pair[2]),
                })
                .collect()
        })
        .collect()
}

/// Renders one trace's table (Table 11 pops, 12 thor, 13 abaqus): one row
/// per CPU, `VR | RR(incl) | RR(no incl)` columns per size pair.
pub fn render(preset: TracePreset, table_no: u32, cells: &[CoherenceCell]) -> TableReport {
    let mut headers = vec!["cpu".to_string()];
    for pair in LARGE_PAIRS {
        let label = super::pair_label(pair);
        headers.push(format!("VR {label}"));
        headers.push(format!("RR(incl) {label}"));
        headers.push(format!("RR(no incl) {label}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = TableReport::new(
        format!(
            "Table {table_no}: number of coherence messages to the first-level cache ({preset})"
        ),
        header_refs,
    );
    let cpus = cells[0].vr.len();
    for cpu in 0..cpus {
        let mut row = vec![cpu.to_string()];
        for cell in cells {
            row.push(cell.vr[cpu].to_string());
            row.push(cell.rr_incl[cpu].to_string());
            row.push(cell.rr_no_incl[cpu].to_string());
        }
        t.row(row);
    }
    t
}

/// Regenerates Tables 11 (pops), 12 (thor) and 13 (abaqus).
pub fn tables_11_12_13(ctx: &mut ExperimentCtx) -> Vec<TableReport> {
    let tables = [
        (TracePreset::Pops, 11),
        (TracePreset::Thor, 12),
        (TracePreset::Abaqus, 13),
    ];
    let grid = coherence_grid(ctx, &tables.map(|(preset, _)| preset));
    tables
        .iter()
        .zip(&grid)
        .map(|(&(preset, no), cells)| render(preset, no, cells))
        .collect()
}

/// The Section 2 claim: with a 16K 2-way V-cache (16-byte blocks) over a
/// 256K 2-way R-cache, the *pops* trace needs only a handful of inclusion
/// invalidations (the paper counts 21). Returns the measured count.
pub fn inclusion_invalidation_count(ctx: &mut ExperimentCtx) -> u64 {
    let l1 = CacheGeometry::new(16 * 1024, 16, 2).expect("valid");
    let l2 = CacheGeometry::new(256 * 1024, 16, 2).expect("valid");
    let cfg = HierarchyConfig::new(l1, l2, PageSize::SIZE_4K).expect("valid");
    let runs = ctx.run_cells(&[Cell::new(TracePreset::Pops, cfg, HierarchyKind::Vr)]);
    runs[0]
        .events
        .iter()
        .map(|e| e.inclusion_invalidations)
        .sum()
}

/// Total messages per organization (summed over CPUs and size pairs) —
/// convenient for shape assertions.
pub fn totals(cells: &[CoherenceCell]) -> (u64, u64, u64) {
    let sum = |f: fn(&CoherenceCell) -> &Vec<u64>| -> u64 {
        cells.iter().flat_map(|c| f(c).iter()).sum()
    };
    (sum(|c| &c.vr), sum(|c| &c.rr_incl), sum(|c| &c.rr_no_incl))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shielding_shape_holds() {
        let mut ctx = ExperimentCtx::new(0.01);
        let cells = coherence_grid(&mut ctx, &[TracePreset::Pops]).remove(0);
        assert_eq!(cells.len(), 3);
        let (vr, rr_incl, rr_no) = totals(&cells);
        assert!(
            vr < rr_no && rr_incl < rr_no,
            "filtered organizations must see fewer messages: vr {vr}, incl {rr_incl}, no-incl {rr_no}"
        );
        // The paper's factor is 3-6x for 4-cpu traces; at reduced scale we
        // only require a clear gap.
        assert!(rr_no as f64 > 1.5 * vr as f64, "vr {vr} vs no-incl {rr_no}");
    }

    #[test]
    fn inclusion_invalidations_are_rare() {
        let mut ctx = ExperimentCtx::new(0.01);
        let n = inclusion_invalidation_count(&mut ctx);
        // Paper: 21 over 3.3M references. Scaled down, this must stay tiny
        // relative to the reference count.
        let refs = ctx.trace(TracePreset::Pops).summary().total_refs;
        assert!(
            (n as f64) < refs as f64 * 0.01,
            "{n} inclusion invalidations over {refs} refs"
        );
    }

    #[test]
    fn render_layout() {
        let cells = vec![
            CoherenceCell {
                vr: vec![1, 2],
                rr_incl: vec![3, 4],
                rr_no_incl: vec![5, 6],
            };
            3
        ];
        let t = render(TracePreset::Abaqus, 13, &cells);
        assert_eq!(t.len(), 2);
        assert!(t.title().contains("Table 13"));
        assert_eq!(t.cell(0, 1), Some("1"));
        assert_eq!(t.cell(1, 3), Some("6"));
    }
}
