//! Associativity sweep: the Section 2 inclusion bound in action.
//!
//! The paper evaluates direct-mapped caches "for simplicity" and derives,
//! analytically, that strict inclusion needs `A2 >= size(1)/page * B2/B1`
//! ways at the second level — falling back to a relaxed rule (evict anyway,
//! invalidate the children) otherwise. This sweep runs the V-R hierarchy
//! across first- and second-level associativities and reports hit ratios
//! and *inclusion invalidations*: as the second level approaches the bound,
//! the invalidations the relaxed rule pays vanish.

use vrcache::config::HierarchyConfig;
use vrcache::inclusion::min_l2_assoc_for_inclusion;
use vrcache_cache::geometry::CacheGeometry;
use vrcache_mem::page::PageSize;
use vrcache_trace::presets::TracePreset;

use super::{Cell, ExperimentCtx, BLOCK_BYTES};
use crate::report::{ratio, TableReport};
use crate::system::HierarchyKind;

/// One measured associativity point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssocPoint {
    /// First-level ways.
    pub l1_ways: u32,
    /// Second-level ways.
    pub l2_ways: u32,
    /// The strict-inclusion requirement for this geometry.
    pub required_ways: u64,
    /// First-level hit ratio.
    pub h1: f64,
    /// Local second-level hit ratio.
    pub h2: f64,
    /// Inclusion invalidations over the whole run.
    pub inclusion_invalidations: u64,
}

/// Sweeps (L1 ways, L2 ways) for the 16K/256K pair on `preset`.
pub fn assoc_sweep(ctx: &mut ExperimentCtx, preset: TracePreset) -> Vec<AssocPoint> {
    let page = PageSize::SIZE_4K;
    let cells: Vec<Cell> = [1u32, 2]
        .into_iter()
        .flat_map(|l1_ways| {
            [1u32, 2, 4, 8].map(|l2_ways| {
                let l1 = CacheGeometry::new(16 * 1024, BLOCK_BYTES, l1_ways).expect("valid");
                let l2 = CacheGeometry::new(256 * 1024, BLOCK_BYTES, l2_ways).expect("valid");
                let cfg = HierarchyConfig::new(l1, l2, page).expect("valid");
                Cell::new(preset, cfg, HierarchyKind::Vr)
            })
        })
        .collect();
    let runs = ctx.run_cells(&cells);
    cells
        .iter()
        .zip(&runs)
        .map(|(cell, run)| AssocPoint {
            l1_ways: cell.cfg.l1.assoc(),
            l2_ways: cell.cfg.l2.assoc(),
            required_ways: min_l2_assoc_for_inclusion(&cell.cfg.l1, &cell.cfg.l2, page),
            h1: run.summary.h1,
            h2: run.summary.h2_local,
            inclusion_invalidations: run.events.iter().map(|e| e.inclusion_invalidations).sum(),
        })
        .collect()
}

/// Renders the sweep.
pub fn render(preset: TracePreset, points: &[AssocPoint]) -> TableReport {
    let mut t = TableReport::new(
        format!("Associativity sweep, 16K/256K ({preset}): inclusion invalidations vs the Section 2 bound"),
        vec![
            "L1 ways",
            "L2 ways",
            "bound (A2 >=)",
            "h1",
            "h2",
            "inclusion invalidations",
        ],
    );
    for p in points {
        t.row(vec![
            p.l1_ways.to_string(),
            p.l2_ways.to_string(),
            p.required_ways.to_string(),
            ratio(p.h1),
            ratio(p.h2),
            p.inclusion_invalidations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_l2_ways_mean_fewer_inclusion_invalidations() {
        let mut ctx = ExperimentCtx::new(0.02);
        let points = assoc_sweep(&mut ctx, TracePreset::Pops);
        assert_eq!(points.len(), 8);
        // Within each L1 associativity, the invalidation count falls
        // (weakly) as L2 ways grow toward the bound.
        for l1_ways in [1u32, 2] {
            let series: Vec<&AssocPoint> = points.iter().filter(|p| p.l1_ways == l1_ways).collect();
            let first = series.first().unwrap().inclusion_invalidations;
            let last = series.last().unwrap().inclusion_invalidations;
            assert!(
                last <= first,
                "l1 {l1_ways}-way: {first} -> {last} invalidations"
            );
        }
        // The bound itself matches the paper's formula (16K/4K * 1 = 4).
        assert!(points.iter().all(|p| p.required_ways == 4));
        // Hit ratios stay in a sane band throughout.
        for p in &points {
            assert!(p.h1 > 0.8 && p.h1 <= 1.0);
        }
    }

    #[test]
    fn render_shape() {
        let points = vec![AssocPoint {
            l1_ways: 1,
            l2_ways: 4,
            required_ways: 4,
            h1: 0.95,
            h2: 0.5,
            inclusion_invalidations: 3,
        }];
        let t = render(TracePreset::Pops, &points);
        assert_eq!(t.len(), 1);
        assert!(t.title().contains("Associativity"));
        assert_eq!(t.cell(0, 2), Some("4"));
    }
}
