//! Calibration report: measured hit ratios of every preset trace across the
//! paper's size ladder, side by side for the V-R and R-R organizations.
//!
//! ```text
//! cargo run --release -p vrcache-bench --bin calibrate -- [scale]
//! ```
//!
//! The scale defaults to 0.05; text that is not a number in `(0, 1]` is
//! rejected with an `error:` line and exit status 1. Used while tuning
//! the synthetic workloads against the paper's Tables 6 and 7; kept as
//! a tool so recalibration after generator changes is one command.

use std::process::ExitCode;

use vrcache_mem::access::AccessKind;
use vrcache_sim::experiments::{paper_cells, parse_scale, ExperimentCtx, LARGE_PAIRS, SMALL_PAIRS};
use vrcache_sim::system::HierarchyKind;
use vrcache_trace::presets::TracePreset;

fn main() -> ExitCode {
    let scale = match std::env::args().nth(1).as_deref().map(parse_scale) {
        None => 0.05,
        Some(Ok(scale)) => scale,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pairs: Vec<(u64, u64)> = LARGE_PAIRS.iter().chain(&SMALL_PAIRS).copied().collect();
    let kinds = [HierarchyKind::Vr, HierarchyKind::RrInclusive];
    let mut ctx = ExperimentCtx::new(scale);
    let runs = ctx.run_cells(&paper_cells(&TracePreset::ALL, &pairs, &kinds));
    println!("calibration at scale {scale}\n");
    for (i, runs) in runs.chunks(kinds.len()).enumerate() {
        let (preset, pair) = (TracePreset::ALL[i / pairs.len()], pairs[i % pairs.len()]);
        let (vr, rr) = (&runs[0].summary, &runs[1].summary);
        let l1 = &vr.l1;
        println!(
            "{preset:<7} {:>5}/{:>4}K: h1VR={:.3} h1RR={:.3} h2VR={:.3} h2RR={:.3} | r {:.3} w {:.3} i {:.3}",
            if pair.0 >= 1024 { format!("{}K", pair.0 / 1024) } else { ".5K".into() },
            pair.1 / 1024,
            vr.h1,
            rr.h1,
            vr.h2_local,
            rr.h2_local,
            l1.class(AccessKind::DataRead).hit_ratio(),
            l1.class(AccessKind::DataWrite).hit_ratio(),
            l1.class(AccessKind::InstrFetch).hit_ratio(),
        );
    }
    ExitCode::SUCCESS
}
