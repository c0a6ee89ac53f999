#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Host-time benchmark of the vrcache simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads, each from one process on one thread, every batch
//! driver at one worker; the modelled caches start empty in all of them:
//!
//! * `replay-paper` — full-scale thor (3.28 M refs, 4 CPUs, 16K/256K
//!   direct-mapped, 16 B blocks), encoded once in set-up, then decoded
//!   and replayed on each organization as `vrsim run --trace-file` does.
//!   The V/L1 hit path and the codec do most of the work.
//! * `snoop-storm` — a 16-CPU stream (200 k refs per CPU, shared pages,
//!   write fraction .35, no context switches) on 1K/64K, replayed in
//!   memory on each organization. The R/L2 and TLB miss path, the bus
//!   fan-out and the snoop handlers dominate; the codec does nothing.
//! * `repro-suite` — `Artifact::render` of all 18 artifacts at scale
//!   0.05: trace synthesis and many small configurations on the timed
//!   path.
//! * `verify-battery` — the model-checker battery and the 3968-run
//!   nightly fault campaign: thousands of tiny hierarchies built and
//!   cloned.
//!
//! With `--trace 0` the run prints the end-to-end metrics: `setup_s`
//! (median over repeated set-ups), `run_s` (median over the timed passes
//! that fit in `--seconds`; a pass is the whole workload once) and
//! `peak_rss_mb` (after set-up and the first pass). With `--trace 1` it
//! also runs the traced pass of [`traced`] on the replay workloads and
//! prints the per-layer metrics. Per-layer times of the untraced run
//! (decode, replay per organization, `System::new`, invariant checks,
//! artifact renders, model scopes, campaign runs) are timed from outside,
//! around calls into each crate's public functions. The traced pass
//! splits each organization's untraced replay time into loop, access,
//! bus-issue, snoop and context-switch self time by the shares its
//! sampled spans measure. Counts summed over organizations (`bus.*`,
//! `mem.*`, `cache.*`, `sim.snoops_delivered`,
//! `sim.snoop_has_copy_ratio`) cover all four; `core.synonyms_*` and
//! `core.incl_invalidations` are the V-R hierarchy's;
//! `sim.snoop_l1_ratio.<org>` is the first-level coherence messages
//! snoops caused (all but inclusion invalidations) per snoop delivered,
//! the paper's shielding. A layer a workload does not exercise reads 0
//! there.
//!
//! Simulated statistics are correctness outputs: their digests are
//! pinned in `pins.txt` at each replay workload's default seed and for
//! the `repro-suite` render, the model battery must report no violation,
//! and the nightly campaign's SDC ids must equal
//! `crates/inject/baseline.txt`.

pub mod check;
pub mod host;
pub mod metrics;
pub mod traced;
pub mod workloads;
