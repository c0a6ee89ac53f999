//! Invalidation vs update coherence protocols on the V-R hierarchy.
//!
//! Section 3 assumes an invalidation protocol "although our scheme will
//! also work for other protocols as well". Both are implemented; this
//! experiment runs the three traces under each and compares hit ratios,
//! bus traffic, and — the quantity the paper's shielding argument cares
//! about — the coherence messages reaching the first level. Update
//! protocols keep sharers' copies alive (higher h1 under real sharing) at
//! the price of a broadcast per shared write, many of which percolate into
//! the V-caches as `update(v-pointer)` messages.

use vrcache::config::HierarchyConfig;
use vrcache_bus::txn::BusOp;
use vrcache_trace::presets::TracePreset;

use super::{Cell, ExperimentCtx, KindRun};
use crate::report::{ratio, TableReport};
use crate::system::HierarchyKind;

/// Measurements for one (trace, protocol) pair at 8K/128K.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolRow {
    /// Whether the update protocol was used.
    pub update: bool,
    /// First-level hit ratio.
    pub h1: f64,
    /// Local second-level hit ratio.
    pub h2: f64,
    /// Bus transactions per 1000 references.
    pub bus_txns_per_kref: f64,
    /// Coherence messages reaching the first level, per 1000 references.
    pub l1_msgs_per_kref: f64,
}

/// Runs both protocols on each of `presets` at the 8K/128K point: one
/// `[invalidation, update]` pair of rows per preset.
pub fn protocol_rows(ctx: &mut ExperimentCtx, presets: &[TracePreset]) -> Vec<[ProtocolRow; 2]> {
    let cells: Vec<Cell> = presets
        .iter()
        .flat_map(|&preset| {
            let base = HierarchyConfig::direct_mapped(8 * 1024, 128 * 1024, 16).expect("valid");
            [base.clone(), base.with_update_protocol()]
                .map(|cfg| Cell::new(preset, cfg, HierarchyKind::Vr))
        })
        .collect();
    let runs = ctx.run_cells(&cells);
    runs.chunks(2)
        .map(|pair| [row(false, &pair[0]), row(true, &pair[1])])
        .collect()
}

fn row(update: bool, run: &KindRun) -> ProtocolRow {
    let refs = run.summary.refs as f64 / 1000.0;
    let msgs: u64 = run.events.iter().map(|e| e.l1_coherence_messages()).sum();
    let txns = BusOp::ALL
        .iter()
        .map(|op| run.summary.bus.count(*op))
        .sum::<u64>() as f64;
    ProtocolRow {
        update,
        h1: run.summary.h1,
        h2: run.summary.h2_local,
        bus_txns_per_kref: txns / refs,
        l1_msgs_per_kref: msgs as f64 / refs,
    }
}

/// Renders the comparison for all three traces.
pub fn protocols_table(ctx: &mut ExperimentCtx) -> TableReport {
    let mut t = TableReport::new(
        "Coherence protocols on the V-R hierarchy (8K/128K)",
        vec![
            "trace",
            "protocol",
            "h1",
            "h2",
            "bus txns / 1k refs",
            "L1 msgs / 1k refs",
        ],
    );
    let grid = protocol_rows(ctx, &TracePreset::ALL);
    for (preset, rows) in TracePreset::ALL.iter().zip(grid) {
        for row in rows {
            t.row(vec![
                preset.name().into(),
                if row.update { "update" } else { "invalidation" }.into(),
                ratio(row.h1),
                ratio(row.h2),
                format!("{:.1}", row.bus_txns_per_kref),
                format!("{:.2}", row.l1_msgs_per_kref),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_never_loses_hits() {
        let mut ctx = ExperimentCtx::new(0.01);
        let presets = [TracePreset::Pops, TracePreset::Abaqus];
        for (preset, [inval, update]) in presets.into_iter().zip(protocol_rows(&mut ctx, &presets))
        {
            assert!(!inval.update && update.update);
            assert!(
                update.h1 >= inval.h1 - 1e-9,
                "{preset}: update h1 {} vs invalidation {}",
                update.h1,
                inval.h1
            );
        }
    }

    #[test]
    fn render_shape() {
        let mut ctx = ExperimentCtx::new(0.004);
        let t = protocols_table(&mut ctx);
        assert_eq!(t.len(), 6);
        assert!(t.to_string().contains("invalidation"));
        assert!(t.to_string().contains("update"));
    }
}
