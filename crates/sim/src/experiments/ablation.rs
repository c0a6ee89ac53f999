//! Ablations of the paper's Section 2 design choices.
//!
//! The paper *argues* for write-back over write-through and for the
//! swapped-valid bit over an eager context-switch flush; these experiments
//! *measure* both arguments on the same workloads:
//!
//! * [`write_policy_ablation`] — write-back vs write-through first level
//!   across write-buffer depths: write-through forwards every store, so a
//!   single buffer stalls constantly (the paper's Table 2 argument), while
//!   write-back with one buffer almost never stalls (the Table 3 claim).
//! * [`context_switch_ablation`] — swapped-valid vs eager flush on the
//!   switch-heavy *abaqus* workload: eager flushing pays a burst of
//!   write-backs at every switch (the paper's "over a hundred blocks"),
//!   swapped-valid spreads the same write-backs over time.

use vrcache::config::{HierarchyConfig, L1WritePolicy};
use vrcache_trace::presets::TracePreset;

use super::{Cell, ExperimentCtx};
use crate::report::{ratio, TableReport};
use crate::system::HierarchyKind;

/// One row of the write-policy ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePolicyRow {
    /// Write-buffer depth.
    pub depth: usize,
    /// Whether the first level was write-through.
    pub write_through: bool,
    /// First-level hit ratio.
    pub h1: f64,
    /// Buffer-full stalls per 1000 references.
    pub stalls_per_kref: f64,
    /// Writes forwarded to the second level (write-through only).
    pub forwarded: u64,
}

/// Runs the write-policy ablation on *pops* at the 16K/256K point.
pub fn write_policy_ablation(ctx: &mut ExperimentCtx) -> Vec<WritePolicyRow> {
    let cells: Vec<Cell> = [false, true]
        .into_iter()
        .flat_map(|write_through| {
            [1usize, 2, 4, 8].map(|depth| {
                let cfg = HierarchyConfig::direct_mapped(16 * 1024, 256 * 1024, 16)
                    .expect("valid")
                    .with_write_buffer(depth);
                let cfg = if write_through {
                    cfg.with_write_through()
                } else {
                    cfg
                };
                Cell::new(TracePreset::Pops, cfg, HierarchyKind::Vr)
            })
        })
        .collect();
    let runs = ctx.run_cells(&cells);
    cells
        .iter()
        .zip(&runs)
        .map(|(cell, run)| {
            let full_stalls: u64 = run.write_buffers.iter().map(|w| w.full_stalls).sum();
            WritePolicyRow {
                depth: cell.cfg.write_buffer,
                write_through: cell.cfg.l1_write_policy == L1WritePolicy::WriteThrough,
                h1: run.summary.h1,
                stalls_per_kref: full_stalls as f64 / (run.summary.refs as f64 / 1000.0),
                forwarded: run.events.iter().map(|e| e.wt_writes_forwarded).sum(),
            }
        })
        .collect()
}

/// Renders the write-policy ablation.
pub fn render_write_policy(rows: &[WritePolicyRow]) -> TableReport {
    let mut t = TableReport::new(
        "Ablation: write-back vs write-through first level (pops, 16K/256K)",
        vec![
            "policy",
            "buffers",
            "h1",
            "stalls / 1k refs",
            "writes forwarded",
        ],
    );
    for r in rows {
        t.row(vec![
            if r.write_through {
                "write-through"
            } else {
                "write-back"
            }
            .into(),
            r.depth.to_string(),
            ratio(r.h1),
            format!("{:.2}", r.stalls_per_kref),
            r.forwarded.to_string(),
        ]);
    }
    t
}

/// The three context-switch schemes the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchScheme {
    /// The paper's swapped-valid bit (lazy incremental write-back).
    SwappedValid,
    /// Naive flush-and-write-back-everything at switch time.
    EagerFlush,
    /// Process-identifier tags (no flush at all).
    AsidTags,
}

impl SwitchScheme {
    /// All schemes, in the paper's discussion order.
    pub const ALL: [SwitchScheme; 3] = [
        SwitchScheme::SwappedValid,
        SwitchScheme::EagerFlush,
        SwitchScheme::AsidTags,
    ];

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SwitchScheme::SwappedValid => "swapped-valid",
            SwitchScheme::EagerFlush => "eager flush",
            SwitchScheme::AsidTags => "asid tags",
        }
    }
}

/// One row of the context-switch ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextSwitchRow {
    /// The scheme measured.
    pub scheme: SwitchScheme,
    /// Context switches observed.
    pub switches: u64,
    /// Write-backs performed *at switch time* (bursts).
    pub eager_writebacks: u64,
    /// Swapped write-backs spread over time.
    pub swapped_writebacks: u64,
    /// Average write-backs per switch for the burst scheme.
    pub avg_burst: f64,
    /// First-level hit ratio.
    pub h1: f64,
}

/// Runs the context-switch ablation on *abaqus* at the 16K/256K point,
/// comparing all three schemes the paper discusses. The paper's claims:
/// eager flushing bursts "over a hundred blocks" per switch; PID tags
/// avoid the flush but "do not improve the hit ratio for a small V-cache"
/// (and bring purge complexity the paper rejects).
pub fn context_switch_ablation(ctx: &mut ExperimentCtx) -> Vec<ContextSwitchRow> {
    let cells = SwitchScheme::ALL.map(|scheme| {
        let cfg = HierarchyConfig::direct_mapped(16 * 1024, 256 * 1024, 16).expect("valid");
        let cfg = match scheme {
            SwitchScheme::SwappedValid => cfg,
            SwitchScheme::EagerFlush => cfg.with_eager_flush(),
            SwitchScheme::AsidTags => cfg.with_asid_tags(),
        };
        Cell::new(TracePreset::Abaqus, cfg, HierarchyKind::Vr)
    });
    let runs = ctx.run_cells(&cells);
    SwitchScheme::ALL
        .iter()
        .zip(&runs)
        .map(|(scheme, run)| {
            let switches: u64 = run.events.iter().map(|e| e.context_switches).sum();
            let eager_writebacks: u64 = run.events.iter().map(|e| e.eager_flush_writebacks).sum();
            let swapped: u64 = run.events.iter().map(|e| e.swapped_writebacks).sum();
            ContextSwitchRow {
                scheme: *scheme,
                switches,
                eager_writebacks,
                swapped_writebacks: swapped,
                avg_burst: if switches == 0 {
                    0.0
                } else {
                    eager_writebacks as f64 / switches as f64
                },
                h1: run.summary.h1,
            }
        })
        .collect()
}

/// Renders the context-switch ablation.
pub fn render_context_switch(rows: &[ContextSwitchRow]) -> TableReport {
    let mut t = TableReport::new(
        "Ablation: context-switch schemes (abaqus, 16K/256K)",
        vec![
            "scheme",
            "switches",
            "switch-time write-backs",
            "avg burst / switch",
            "incremental (swapped) write-backs",
            "h1",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scheme.label().into(),
            r.switches.to_string(),
            r.eager_writebacks.to_string(),
            format!("{:.1}", r.avg_burst),
            r.swapped_writebacks.to_string(),
            ratio(r.h1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_through_stalls_more_and_hits_less() {
        let mut ctx = ExperimentCtx::new(0.01);
        let rows = write_policy_ablation(&mut ctx);
        assert_eq!(rows.len(), 8);
        let wb1 = rows
            .iter()
            .find(|r| !r.write_through && r.depth == 1)
            .unwrap();
        let wt1 = rows
            .iter()
            .find(|r| r.write_through && r.depth == 1)
            .unwrap();
        assert!(
            wt1.h1 < wb1.h1,
            "no-write-allocate must lower h1: wt {} wb {}",
            wt1.h1,
            wb1.h1
        );
        assert!(wt1.forwarded > 0);
        assert_eq!(wb1.forwarded, 0);
        // Write-back with a single buffer (the paper's configuration)
        // virtually never stalls.
        assert!(
            wb1.stalls_per_kref < 1.0,
            "write-back stalls: {}",
            wb1.stalls_per_kref
        );
    }

    #[test]
    fn eager_flush_pays_bursts_and_asid_tags_avoid_them() {
        let mut ctx = ExperimentCtx::new(0.05);
        let rows = context_switch_ablation(&mut ctx);
        assert_eq!(rows.len(), 3);
        let lazy = rows[0];
        let eager = rows[1];
        let tags = rows[2];
        assert_eq!(lazy.scheme, SwitchScheme::SwappedValid);
        assert_eq!(lazy.eager_writebacks, 0);
        assert!(eager.eager_writebacks > 0, "no switch-time bursts measured");
        assert!(
            lazy.swapped_writebacks > 0,
            "no incremental write-backs measured"
        );
        assert!(
            eager.avg_burst > 3.0,
            "bursts should be many blocks: {}",
            eager.avg_burst
        );
        // PID tags: no flushing of any kind...
        assert_eq!(tags.eager_writebacks, 0);
        assert_eq!(tags.swapped_writebacks, 0);
        // ...and (paper's observation) a hit ratio at least as good as the
        // flushing schemes.
        assert!(
            tags.h1 >= lazy.h1 - 0.005,
            "tags {} vs lazy {}",
            tags.h1,
            lazy.h1
        );
    }

    #[test]
    fn renders() {
        let t = render_write_policy(&[WritePolicyRow {
            depth: 1,
            write_through: true,
            h1: 0.9,
            stalls_per_kref: 2.5,
            forwarded: 100,
        }]);
        assert_eq!(t.len(), 1);
        let t = render_context_switch(&[ContextSwitchRow {
            scheme: SwitchScheme::EagerFlush,
            switches: 10,
            eager_writebacks: 1000,
            swapped_writebacks: 0,
            avg_burst: 100.0,
            h1: 0.9,
        }]);
        assert!(t.to_string().contains("eager flush"));
    }
}
