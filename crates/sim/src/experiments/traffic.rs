//! Memory traffic vs second-level size.
//!
//! The paper's core pitch for the large R-cache: "The large second-level
//! cache provides a high hit ratio and reduces a large amount of memory
//! traffic." This experiment quantifies that: bus transactions and bytes
//! moved per 1000 references for each size pair, plus a no-second-level
//! baseline (every V-cache miss goes to memory) computed from the same
//! runs.

use vrcache_bus::txn::BusOp;
use vrcache_trace::presets::TracePreset;

use super::{paper_cells, ExperimentCtx, BLOCK_BYTES, LARGE_PAIRS};
use crate::report::TableReport;
use crate::system::HierarchyKind;

/// Traffic measurements for one (trace, size pair) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficCell {
    /// Data-carrying fetches (read-miss + read-modified-write).
    pub fetches: u64,
    /// Invalidation transactions.
    pub invalidations: u64,
    /// Write-backs to memory.
    pub writebacks: u64,
    /// Total references replayed.
    pub refs: u64,
    /// First-level misses (what a one-level system would send to memory).
    pub l1_misses: u64,
}

impl TrafficCell {
    /// Bus transactions per 1000 references.
    pub fn txns_per_kref(&self) -> f64 {
        (self.fetches + self.invalidations + self.writebacks) as f64 / (self.refs as f64 / 1000.0)
    }

    /// Data bytes moved on the bus per 1000 references (fetches and
    /// write-backs carry a block; invalidations are address-only).
    pub fn bytes_per_kref(&self) -> f64 {
        ((self.fetches + self.writebacks) * BLOCK_BYTES) as f64 / (self.refs as f64 / 1000.0)
    }

    /// What the fetch traffic would be with no second level at all: every
    /// first-level miss becomes a memory fetch.
    pub fn no_l2_fetches_per_kref(&self) -> f64 {
        self.l1_misses as f64 / (self.refs as f64 / 1000.0)
    }

    /// The traffic reduction factor the second level buys.
    pub fn reduction_factor(&self) -> f64 {
        if self.fetches == 0 {
            f64::INFINITY
        } else {
            self.l1_misses as f64 / self.fetches as f64
        }
    }
}

/// Measures traffic for each of `presets` over the standard size pairs
/// (V-R organization): one `Vec` per preset, in size-pair order.
pub fn traffic_grid(ctx: &mut ExperimentCtx, presets: &[TracePreset]) -> Vec<Vec<TrafficCell>> {
    let cells = paper_cells(presets, &LARGE_PAIRS, &[HierarchyKind::Vr]);
    let runs = ctx.run_cells(&cells);
    runs.chunks(LARGE_PAIRS.len())
        .map(|row| {
            row.iter()
                .map(|run| {
                    let bus = run.summary.bus;
                    TrafficCell {
                        fetches: bus.count(BusOp::ReadMiss) + bus.count(BusOp::ReadModifiedWrite),
                        invalidations: bus.count(BusOp::Invalidate),
                        writebacks: bus.count(BusOp::WriteBack),
                        refs: run.summary.refs,
                        l1_misses: run.summary.l1.misses(),
                    }
                })
                .collect()
        })
        .collect()
}

/// Renders the traffic study for all three traces.
pub fn traffic_table(ctx: &mut ExperimentCtx) -> TableReport {
    let mut t = TableReport::new(
        "Memory traffic vs second-level size (V-R, per 1000 references)",
        vec![
            "trace",
            "sizes",
            "bus txns",
            "bytes moved",
            "fetches w/o L2",
            "traffic reduction",
        ],
    );
    let grid = traffic_grid(ctx, &TracePreset::ALL);
    for (preset, cells) in TracePreset::ALL.iter().zip(&grid) {
        for (pair, cell) in LARGE_PAIRS.iter().zip(cells) {
            t.row(vec![
                preset.name().into(),
                super::pair_label(*pair),
                format!("{:.1}", cell.txns_per_kref()),
                format!("{:.0}", cell.bytes_per_kref()),
                format!("{:.1}", cell.no_l2_fetches_per_kref()),
                format!("{:.1}x", cell.reduction_factor()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_reduces_traffic_and_bigger_l2_reduces_more() {
        let mut ctx = ExperimentCtx::new(0.02);
        let cells = traffic_grid(&mut ctx, &[TracePreset::Pops]).remove(0);
        assert_eq!(cells.len(), 3);
        for c in &cells {
            // At reduced scale the largest L2 is partially cold; it must
            // still filter, just less dramatically than at full scale.
            assert!(
                c.reduction_factor() > 1.1,
                "L2 must filter misses: {}x",
                c.reduction_factor()
            );
            assert!(c.fetches > 0 && c.refs > 0);
        }
        assert!(
            cells[0].reduction_factor() > 1.5,
            "the warm 64K L2 must filter strongly: {}x",
            cells[0].reduction_factor()
        );
        // Larger hierarchies move fewer bytes.
        assert!(
            cells[2].bytes_per_kref() < cells[0].bytes_per_kref(),
            "{} vs {}",
            cells[2].bytes_per_kref(),
            cells[0].bytes_per_kref()
        );
    }

    #[test]
    fn render_shape() {
        let mut ctx = ExperimentCtx::new(0.004);
        let t = traffic_table(&mut ctx);
        assert_eq!(t.len(), 9);
        assert!(t.title().contains("Memory traffic"));
    }
}
