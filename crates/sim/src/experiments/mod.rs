//! One module per table and figure of the paper's evaluation.
//!
//! Every experiment takes an [`ExperimentCtx`], which caches the generated
//! traces (they are reused across many configurations) and carries the
//! volume scale: `1.0` reproduces the paper-sized traces, smaller values
//! give proportionally faster runs for tests and smoke checks.
//!
//! An experiment lists its simulations as [`Cell`]s and hands them to
//! [`ExperimentCtx::run_cells`], the one place simulations run: it
//! synthesizes each missing trace once on the caller's thread, lends
//! every cell a borrow of its trace, and runs the cells on the
//! `vrcache-exec` pool with the context's worker count. Results come
//! back in cell order, so a report is byte-identical for any worker
//! count.

pub mod ablation;
pub mod access_time;
pub mod assoc;
pub mod coherence;
pub mod hit_ratios;
pub mod protocols;
pub mod scaling;
pub mod single_level;
pub mod split_id;
pub mod table5;
pub mod tables_write;
pub mod traffic;

use std::collections::BTreeMap;
use std::fmt;

use vrcache::config::HierarchyConfig;
use vrcache::events::HierarchyEvents;
use vrcache_cache::write_buffer::WriteBufferStats;
use vrcache_mem::access::CpuId;
use vrcache_trace::presets::TracePreset;
use vrcache_trace::trace::Trace;

use crate::system::{HierarchyKind, RunSummary, System};

/// The (L1 bytes, L2 bytes) pairs of the paper's Tables 6, 8–13.
pub const LARGE_PAIRS: [(u64, u64); 3] = [
    (4 * 1024, 64 * 1024),
    (8 * 1024, 128 * 1024),
    (16 * 1024, 256 * 1024),
];

/// The small-first-level pairs of Table 7.
pub const SMALL_PAIRS: [(u64, u64); 3] =
    [(512, 64 * 1024), (1024, 128 * 1024), (2 * 1024, 256 * 1024)];

/// The block size used throughout the evaluation.
pub const BLOCK_BYTES: u64 = 16;

/// Formats a size pair the way the paper labels its columns (`4K/64K`).
pub fn pair_label(pair: (u64, u64)) -> String {
    fn side(v: u64) -> String {
        if v >= 1024 && v.is_multiple_of(1024) {
            format!("{}K", v / 1024)
        } else {
            format!(".{}K", v * 10 / 1024 / 10) // paper writes .5K for 512
        }
    }
    let l1 = if pair.0 < 1024 {
        ".5K".to_string()
    } else {
        side(pair.0)
    };
    format!("{l1}/{}", side(pair.1))
}

/// A trace volume scale that is not a number in `(0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaleError {
    /// The text does not parse as a number.
    Malformed(String),
    /// The number lies outside `(0, 1]`.
    OutOfRange(f64),
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleError::Malformed(s) => write!(f, "bad scale: {s:?} is not a number"),
            ScaleError::OutOfRange(v) => write!(f, "scale must be in (0, 1], got {v}"),
        }
    }
}

impl std::error::Error for ScaleError {}

/// `scale` itself if it lies in `(0, 1]`; NaN does not.
fn check_scale(scale: f64) -> Result<f64, ScaleError> {
    if scale > 0.0 && scale <= 1.0 {
        Ok(scale)
    } else {
        Err(ScaleError::OutOfRange(scale))
    }
}

/// Parses a command-line scale and checks its range.
///
/// # Errors
///
/// [`ScaleError::Malformed`] for text that is not a number,
/// [`ScaleError::OutOfRange`] for a number outside `(0, 1]`.
pub fn parse_scale(text: &str) -> Result<f64, ScaleError> {
    let scale = text
        .parse::<f64>()
        .map_err(|_| ScaleError::Malformed(text.to_string()))?;
    check_scale(scale)
}

/// One simulation: a preset trace replayed on a fresh system of one
/// organization and configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The trace to replay.
    pub preset: TracePreset,
    /// The hierarchy configuration of every CPU.
    pub cfg: HierarchyConfig,
    /// The organization.
    pub kind: HierarchyKind,
}

impl Cell {
    /// A cell replaying `preset` on `kind` configured as `cfg`.
    pub fn new(preset: TracePreset, cfg: HierarchyConfig, kind: HierarchyKind) -> Self {
        Cell { preset, cfg, kind }
    }
}

/// One cell per (preset, size pair, organization) on the paper's
/// direct-mapped configurations, organization as the minor key: the
/// runs of one (preset, pair) are adjacent, in `kinds` order.
pub fn paper_cells(
    presets: &[TracePreset],
    pairs: &[(u64, u64)],
    kinds: &[HierarchyKind],
) -> Vec<Cell> {
    presets
        .iter()
        .flat_map(|&preset| {
            pairs.iter().flat_map(move |&pair| {
                kinds
                    .iter()
                    .map(move |&kind| Cell::new(preset, paper_config(pair), kind))
            })
        })
        .collect()
}

/// Deterministic work done through one [`ExperimentCtx`]: a cost proxy
/// that, unlike wall clock, is the same on every host and at every
/// worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Simulations run.
    pub cells: u64,
    /// References replayed, summed over those simulations.
    pub refs: u64,
}

/// Shared context: cached traces, the volume scale, the worker count
/// and the work done so far.
pub struct ExperimentCtx {
    scale: f64,
    jobs: usize,
    traces: BTreeMap<TracePreset, Trace>,
    /// Memoized Table 6 rows by trace (figures 4-6 each need one).
    pub(crate) table6_rows: BTreeMap<TracePreset, hit_ratios::HitRatioRow>,
    work: WorkCounters,
}

impl ExperimentCtx {
    /// Creates a context generating traces at `scale` of their paper
    /// size, running cells on [`vrcache_exec::default_jobs`] workers.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn new(scale: f64) -> Self {
        let scale = check_scale(scale).unwrap_or_else(|e| panic!("{e}"));
        ExperimentCtx {
            scale,
            jobs: vrcache_exec::default_jobs(),
            traces: BTreeMap::new(),
            table6_rows: BTreeMap::new(),
            work: WorkCounters::default(),
        }
    }

    /// Sets the number of workers [`ExperimentCtx::run_cells`] uses.
    /// Results never depend on it.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The volume scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The work done through this context so far.
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// The (cached) trace for `preset`.
    pub fn trace(&mut self, preset: TracePreset) -> &Trace {
        let scale = self.scale;
        self.traces
            .entry(preset)
            .or_insert_with(|| preset.generate_scaled(scale))
    }

    /// Runs every cell and returns the runs in cell order.
    ///
    /// Missing traces are synthesized here, on the caller's thread, so
    /// their memory comes from the caller's allocator arena; the cells
    /// then borrow them on the `vrcache-exec` pool. List cells with the
    /// organization as the minor key so the pool's fixed `i % jobs`
    /// partition gives each worker a similar load.
    ///
    /// # Panics
    ///
    /// Panics if a simulation fails (see [`run_kind`]).
    pub fn run_cells(&mut self, cells: &[Cell]) -> Vec<KindRun> {
        for cell in cells {
            self.trace(cell.preset);
        }
        let traces = &self.traces;
        let runs: Vec<KindRun> = vrcache_exec::run_cells(self.jobs, cells, |_, c| {
            run_kind(&traces[&c.preset], &c.cfg, c.kind)
        })
        .into_iter()
        .zip(cells)
        .map(|(done, c)| {
            done.result
                .unwrap_or_else(|failure| panic!("{} cell on {}: {failure}", c.kind, c.preset))
        })
        .collect();
        for run in &runs {
            self.count(run);
        }
        runs
    }

    /// Runs one simulation of a trace the context does not own, on the
    /// caller's thread, and counts it.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (see [`run_kind`]).
    pub fn run_one(
        &mut self,
        trace: &Trace,
        cfg: &HierarchyConfig,
        kind: HierarchyKind,
    ) -> KindRun {
        let run = run_kind(trace, cfg, kind);
        self.count(&run);
        run
    }

    fn count(&mut self, run: &KindRun) {
        self.work.cells += 1;
        self.work.refs += run.summary.refs;
    }
}

/// The result of one full simulation: the aggregate summary plus each
/// processor's event counters.
pub struct KindRun {
    /// Aggregate hit ratios and statistics.
    pub summary: RunSummary,
    /// Per-CPU event counters, indexed by CPU.
    pub events: Vec<HierarchyEvents>,
    /// Per-CPU split (instruction, data) L1 statistics, when the first
    /// level is split.
    pub split_stats: Vec<
        Option<(
            vrcache_cache::stats::CacheStats,
            vrcache_cache::stats::CacheStats,
        )>,
    >,
    /// Per-CPU write-buffer statistics.
    pub write_buffers: Vec<WriteBufferStats>,
}

/// Runs `trace` on a fresh system of the given kind and configuration.
///
/// # Panics
///
/// Panics if the simulation reports a coherence or invariant violation —
/// experiments must run on a correct simulator or not at all.
pub fn run_kind(trace: &Trace, cfg: &HierarchyConfig, kind: HierarchyKind) -> KindRun {
    let mut sys = System::new(kind, trace.cpus(), cfg);
    let summary = sys
        .run_trace(trace)
        .unwrap_or_else(|e| panic!("{kind} simulation failed: {e}"));
    sys.check_invariants()
        .unwrap_or_else(|e| panic!("{kind} invariants failed: {e}"));
    let cpus = || (0..trace.cpus()).map(CpuId::new);
    KindRun {
        summary,
        events: cpus().map(|c| sys.events(c).clone()).collect(),
        split_stats: cpus().map(|c| sys.hierarchy(c).l1_split_stats()).collect(),
        write_buffers: cpus().map(|c| sys.write_buffer_stats(c)).collect(),
    }
}

/// Builds the standard direct-mapped configuration for a size pair.
///
/// # Panics
///
/// Panics on invalid geometry (cannot happen for the paper's pairs).
pub fn paper_config(pair: (u64, u64)) -> HierarchyConfig {
    HierarchyConfig::direct_mapped(pair.0, pair.1, BLOCK_BYTES).expect("paper size pairs are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_labels_match_paper() {
        assert_eq!(pair_label((4 * 1024, 64 * 1024)), "4K/64K");
        assert_eq!(pair_label((16 * 1024, 256 * 1024)), "16K/256K");
        assert_eq!(pair_label((512, 64 * 1024)), ".5K/64K");
        assert_eq!(pair_label((2 * 1024, 256 * 1024)), "2K/256K");
    }

    #[test]
    fn ctx_caches_traces() {
        let mut ctx = ExperimentCtx::new(0.002);
        let a = ctx.trace(TracePreset::Pops).summary();
        let b = ctx.trace(TracePreset::Pops).summary();
        assert_eq!(a, b);
        assert_eq!(ctx.traces.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn bad_scale_panics() {
        let _ = ExperimentCtx::new(0.0);
    }

    #[test]
    fn scales_parse_or_fail_typed() {
        assert_eq!(parse_scale("0.25"), Ok(0.25));
        assert_eq!(parse_scale("1"), Ok(1.0));
        assert_eq!(
            parse_scale("0,5"),
            Err(ScaleError::Malformed("0,5".to_string()))
        );
        assert_eq!(parse_scale("2"), Err(ScaleError::OutOfRange(2.0)));
        assert_eq!(parse_scale("0"), Err(ScaleError::OutOfRange(0.0)));
        assert!(matches!(parse_scale("NaN"), Err(ScaleError::OutOfRange(_))));
    }

    #[test]
    fn run_kind_smoke() {
        let mut ctx = ExperimentCtx::new(0.002);
        let trace = ctx.trace(TracePreset::Thor);
        let run = run_kind(trace, &paper_config(LARGE_PAIRS[0]), HierarchyKind::Vr);
        assert_eq!(run.events.len(), 4);
        assert_eq!(run.write_buffers.len(), 4);
        assert!(run.summary.h1 > 0.0);
    }

    #[test]
    fn cells_come_back_in_order_and_are_counted() {
        let cfg = paper_config(LARGE_PAIRS[0]);
        let cells: Vec<Cell> = [TracePreset::Abaqus, TracePreset::Thor]
            .into_iter()
            .flat_map(|p| {
                [HierarchyKind::Vr, HierarchyKind::RrInclusive]
                    .map(|k| Cell::new(p, cfg.clone(), k))
            })
            .collect();
        let mut ctx = ExperimentCtx::new(0.002).with_jobs(1);
        let serial: Vec<RunSummary> = ctx
            .run_cells(&cells)
            .into_iter()
            .map(|r| r.summary)
            .collect();
        assert_eq!(ctx.traces.len(), 2, "each trace synthesized once");
        let refs = serial.iter().map(|s| s.refs).sum();
        assert!(refs > 0);
        assert_eq!(ctx.work(), WorkCounters { cells: 4, refs });
        for jobs in [2, 8] {
            let mut ctx = ExperimentCtx::new(0.002).with_jobs(jobs);
            let parallel: Vec<RunSummary> = ctx
                .run_cells(&cells)
                .into_iter()
                .map(|r| r.summary)
                .collect();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }
}
