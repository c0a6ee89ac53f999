//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--scale S] [--jobs N] [artifact ...]
//!
//!   --scale S   trace volume relative to the paper (default 1.0)
//!   --jobs N    simulation threads (default: host parallelism, max 4);
//!               stdout is byte-identical for any value
//!   artifact    table1 table2 table3 table5 table6 table7
//!               fig4 fig5 fig6 tables8-10 tables11-13 inclusion ablations scaling traffic goodman assoc protocols
//!               (default: everything)
//! ```
//!
//! Artifacts render one after another, in the order given. Each lists
//! its simulations as cells of a fresh `ExperimentCtx`, which runs them
//! on the deterministic `vrcache-exec` pool with `N` workers and reduces
//! them in cell order. `--jobs 1` therefore runs every simulation on
//! one thread, and no value changes the bytes. Per-artifact wall clock
//! and work counters (cells simulated, references replayed) go to
//! stderr only.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use vrcache_bench::Artifact;
use vrcache_exec::{human_duration, parse_jobs, resolve_jobs, time_fn, MAX_JOBS};
use vrcache_sim::experiments::{parse_scale, ExperimentCtx};

fn main() -> ExitCode {
    let mut scale = 1.0_f64;
    let mut jobs = None;
    let mut artifacts: Vec<Artifact> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match parse_scale(&args.next().unwrap_or_default()) {
                Ok(v) => scale = v,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => {
                let value = args.next().unwrap_or_default();
                match parse_jobs(&value) {
                    Ok(n) => jobs = Some(n),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale S] [--jobs N] [artifact ...]\nartifacts: table1 table2 table3 \
                     table5 table6 table7 fig4 fig5 fig6 tables8-10 tables11-13 inclusion ablations scaling traffic goodman assoc protocols"
                );
                return ExitCode::SUCCESS;
            }
            name => match Artifact::parse(name) {
                Some(a) => artifacts.push(a),
                None => {
                    eprintln!("error: unknown artifact: {name}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if artifacts.is_empty() {
        artifacts = Artifact::ALL.to_vec();
    }

    let jobs = resolve_jobs(jobs, MAX_JOBS);
    eprintln!(
        "[repro] {} artifact(s), {jobs} worker(s), scale {scale}",
        artifacts.len()
    );
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "# vrcache reproduction (scale {scale})\n");
    for (i, artifact) in artifacts.iter().enumerate() {
        let mut ctx = ExperimentCtx::new(scale).with_jobs(jobs);
        let (rendered, duration) =
            time_fn(|| catch_unwind(AssertUnwindSafe(|| artifact.render_in(&mut ctx))));
        let Ok(rendered) = rendered else {
            eprintln!("[repro] {artifact:?} failed");
            return ExitCode::FAILURE;
        };
        let work = ctx.work();
        eprintln!(
            "[repro] [{}/{}] {artifact:?} rendered in {}: {} cells, {} refs replayed",
            i + 1,
            artifacts.len(),
            human_duration(duration),
            work.cells,
            work.refs
        );
        let _ = write!(stdout, "{rendered}");
    }
    if stdout.flush().is_err() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
