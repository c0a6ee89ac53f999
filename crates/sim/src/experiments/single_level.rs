//! Two-level V-R vs Goodman's single-level dual-tag cache.
//!
//! The paper's footnote 1 claims its organization is Goodman's scheme with
//! the real directory promoted into a second-level cache, gaining (a) a
//! much larger filter and (b) a second chance for misses. This experiment
//! measures the claim: the same traces run on the V-R hierarchy and on the
//! single-level dual-tag cache with an equal first-level size, comparing
//! hit ratios, memory traffic and the resulting average access time
//! (`T = h1*t1 + (1-h1)*tm` for the single-level cache — every miss goes
//! to memory).

use vrcache::timing::AccessTimeModel;
use vrcache_bus::txn::BusOp;
use vrcache_trace::presets::TracePreset;

use super::{paper_cells, ExperimentCtx, LARGE_PAIRS};
use crate::report::{ratio, TableReport};
use crate::system::HierarchyKind;

/// One (trace, size) comparison cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleLevelCell {
    /// First-level hit ratio, V-R.
    pub h1_vr: f64,
    /// Local second-level hit ratio, V-R.
    pub h2_vr: f64,
    /// Hit ratio of the single-level cache.
    pub h1_goodman: f64,
    /// Data fetches from memory per 1000 refs, V-R.
    pub vr_fetches_per_kref: f64,
    /// Data fetches from memory per 1000 refs, single-level.
    pub goodman_fetches_per_kref: f64,
    /// Average access time, V-R (paper's equation).
    pub t_vr: f64,
    /// Average access time, single-level (`h1*t1 + (1-h1)*tm`).
    pub t_goodman: f64,
}

/// The organizations each cell compares, in cell order.
const KINDS: [HierarchyKind; 2] = [HierarchyKind::Vr, HierarchyKind::GoodmanSingleLevel];

/// Measures the comparison for each of `presets` across the standard
/// size pairs: one `Vec` per preset, in size-pair order.
pub fn single_level_grid(
    ctx: &mut ExperimentCtx,
    presets: &[TracePreset],
) -> Vec<Vec<SingleLevelCell>> {
    let cells = paper_cells(presets, &LARGE_PAIRS, &KINDS);
    let model = AccessTimeModel::PAPER;
    let fetches = |s: &crate::system::RunSummary| {
        (s.bus.count(BusOp::ReadMiss) + s.bus.count(BusOp::ReadModifiedWrite)) as f64
            / (s.refs as f64 / 1000.0)
    };
    let runs = ctx.run_cells(&cells);
    runs.chunks(KINDS.len() * LARGE_PAIRS.len())
        .map(|row| {
            row.chunks(KINDS.len())
                .map(|pair| {
                    let (vr, gm) = (&pair[0].summary, &pair[1].summary);
                    SingleLevelCell {
                        h1_vr: vr.h1,
                        h2_vr: vr.h2_local,
                        h1_goodman: gm.h1,
                        vr_fetches_per_kref: fetches(vr),
                        goodman_fetches_per_kref: fetches(gm),
                        t_vr: model.avg_access_time(vr.h1, vr.h2_local),
                        // Single level: a miss pays the memory time directly.
                        t_goodman: model.avg_access_time(gm.h1, 0.0),
                    }
                })
                .collect()
        })
        .collect()
}

/// Renders the comparison for all three traces.
pub fn single_level_table(ctx: &mut ExperimentCtx) -> TableReport {
    let mut t = TableReport::new(
        "Two-level V-R vs Goodman single-level dual-tag (equal L1 size)",
        vec![
            "trace",
            "sizes",
            "h1 VR",
            "h1 1-level",
            "VR fetches/1k",
            "1-level fetches/1k",
            "T VR",
            "T 1-level",
        ],
    );
    let grid = single_level_grid(ctx, &TracePreset::ALL);
    for (preset, cells) in TracePreset::ALL.iter().zip(&grid) {
        for (pair, c) in LARGE_PAIRS.iter().zip(cells) {
            t.row(vec![
                preset.name().into(),
                super::pair_label(*pair),
                ratio(c.h1_vr),
                ratio(c.h1_goodman),
                format!("{:.1}", c.vr_fetches_per_kref),
                format!("{:.1}", c.goodman_fetches_per_kref),
                format!("{:.3}", c.t_vr),
                format!("{:.3}", c.t_goodman),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_levels_beat_one_at_equal_l1() {
        let mut ctx = ExperimentCtx::new(0.01);
        let cells = single_level_grid(&mut ctx, &[TracePreset::Pops]).remove(0);
        assert_eq!(cells.len(), 3);
        for c in &cells {
            // Equal-size virtual L1s see near-identical hit ratios...
            assert!(
                (c.h1_vr - c.h1_goodman).abs() < 0.02,
                "vr {} vs goodman {}",
                c.h1_vr,
                c.h1_goodman
            );
            // ...but the second level absorbs misses the single level must
            // send to memory, and the access time reflects it.
            assert!(
                c.goodman_fetches_per_kref > c.vr_fetches_per_kref,
                "goodman {} vs vr {}",
                c.goodman_fetches_per_kref,
                c.vr_fetches_per_kref
            );
            assert!(c.t_goodman > c.t_vr, "t {} vs {}", c.t_goodman, c.t_vr);
        }
    }

    #[test]
    fn render_shape() {
        let mut ctx = ExperimentCtx::new(0.004);
        let t = single_level_table(&mut ctx);
        assert_eq!(t.len(), 9);
        assert!(t.title().contains("Goodman"));
    }
}
