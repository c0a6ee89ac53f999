//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! vrcache-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Stderr gets a readable report (every measured metric with its unit
//! and sample count, each digest as a `pin:` line, every failure).
//! Stdout ends with a `host` line (CPU count, commit, source digest,
//! sample counts) and then one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits 0 when every operation passed, 1 when
//! one failed, 2 on a usage error.

use std::process::ExitCode;

use vrcache_perfbench::check::PINS;
use vrcache_perfbench::host;
use vrcache_perfbench::metrics;
use vrcache_perfbench::workloads::{self, Options, Size, Workload};

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload: {value}"))?,
                );
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("--seed {value}: {e}"))?);
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.or(workload.default_seed()).unwrap_or(0),
        seconds,
        trace,
        size: Size::Full,
        pins: PINS.to_string(),
        span_dir: Some(host::repo_root().join("perfbench").join("out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: vrcache-perfbench --workload <replay-paper|snoop-storm|\
                 repro-suite|verify-battery> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let name = opts.workload.name();
    eprintln!(
        "[perfbench] {name} seed={} seconds={} trace={}",
        opts.seed, opts.seconds, opts.trace
    );
    let outcome = workloads::run(&opts);

    for (metric, v) in outcome.metrics.iter() {
        eprintln!(
            "  {metric:<34} {:>16.6} {:<7} ({} samples)",
            v.value, v.unit, v.samples
        );
    }
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for pin in &outcome.digests {
        eprintln!("pin: {pin}");
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }

    let root = host::repo_root();
    let samples: Vec<String> = outcome
        .metrics
        .select(&metrics::printed(opts.trace))
        .iter()
        .map(|(n, v)| format!("{n}:{}", v.samples))
        .collect();
    println!(
        "host cpus={} commit={} source={} workload={name} seed={} samples={}",
        host::cpus(),
        host::commit(&root),
        host::source_digest(&root),
        opts.seed,
        samples.join(",")
    );
    println!("{}", outcome.result_line(opts.trace));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
