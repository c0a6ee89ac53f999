//! The four workloads. Each builds its inputs (set-up), then repeats
//! its timed pass for the run's time budget, checking every operation.
//!
//! An operation is one organization replay, one artifact render, one
//! model scope or one campaign. It fails on a coherence or invariant
//! error, a panic, or a digest that differs from its pin or from the
//! same operation's digest in the run's first pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use bytes::Bytes;
use vrcache::config::HierarchyConfig;
use vrcache::hierarchy::CacheHierarchy;
use vrcache_bench::Artifact;
use vrcache_bus::txn::BusOp;
use vrcache_inject::baseline::Baseline;
use vrcache_inject::Campaign;
use vrcache_mem::access::CpuId;
use vrcache_model::{run_scope_battery, Scope};
use vrcache_sim::system::{HierarchyKind, System};
use vrcache_trace::codec;
use vrcache_trace::presets::TracePreset;
use vrcache_trace::synth::{try_generate, WorkloadConfig};
use vrcache_trace::trace::Trace;

use crate::check::{text_digest, Pins, SimStats};
use crate::metrics::{median, quantile, ratio, Metrics, ARTIFACTS, BUS_OPS, ORGS};
use crate::traced::{self, SpanKind, SpanLog};

/// The paper's Table 6 cell for thor at 16K/256K: V-R `h1` and `h2`.
pub const PAPER_THOR_16K_H1_VR: f64 = 0.968;
/// See [`PAPER_THOR_16K_H1_VR`].
pub const PAPER_THOR_16K_H2_VR: f64 = 0.463;

/// The `repro` scale the `repro-suite` workload renders at.
pub const REPRO_SCALE: f64 = 0.05;

/// The committed nightly SDC baseline.
const INJECT_BASELINE: &str = include_str!("../../crates/inject/baseline.txt");

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-scale thor, encoded once, decoded and replayed per
    /// organization.
    ReplayPaper,
    /// A 16-CPU write-heavy stream on 1K/64K caches, replayed in memory.
    SnoopStorm,
    /// Every `repro` artifact at a reduced scale, one worker.
    ReproSuite,
    /// The model-checker battery plus the nightly fault campaign.
    VerifyBattery,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayPaper,
        Workload::SnoopStorm,
        Workload::ReproSuite,
        Workload::VerifyBattery,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayPaper => "replay-paper",
            Workload::SnoopStorm => "snoop-storm",
            Workload::ReproSuite => "repro-suite",
            Workload::VerifyBattery => "verify-battery",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the pins belong to; `None` for a workload whose inputs
    /// are fixed by its presets and campaign and that takes no seed.
    pub fn default_seed(self) -> Option<u64> {
        match self {
            Workload::ReplayPaper => Some(TracePreset::Thor.config().seed),
            Workload::SnoopStorm => Some(WorkloadConfig::default().seed),
            Workload::ReproSuite | Workload::VerifyBattery => None,
        }
    }
}

/// How large the inputs are: the benchmark's own, or a tiny version for
/// the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Inputs small enough that all four workloads run in seconds.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The input seed (ignored by workloads that take none).
    pub seed: u64,
    /// The timed phase's budget, in seconds; at least one pass runs.
    pub seconds: f64,
    /// Whether to run the traced pass after the timed phase.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Digests to compare against, in the format of `pins.txt`; parsed
    /// as part of set-up.
    pub pins: String,
    /// Where the traced pass writes its spans, if anywhere.
    pub span_dir: Option<PathBuf>,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Every measured value, end-to-end and per-layer.
    pub metrics: Metrics,
    /// This run's digests, as pin lines.
    pub digests: Vec<String>,
    /// Human-readable notes for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Runs one operation, counting it and recording its failure or
    /// panic.
    fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.failures.push(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// The benchmark's last line: the per-layer metrics when `trace`,
    /// the end-to-end metrics otherwise.
    pub fn result_line(&self, trace: bool) -> String {
        crate::metrics::result_line(
            self.attempted,
            self.failures.len() as u64,
            &self.metrics.select(&crate::metrics::printed(trace)),
        )
    }

    /// Checks `digest` against the pin for `key` and records it.
    fn pin(&mut self, pins: &Pins, key: &str, digest: &str, required: bool) -> Result<(), String> {
        self.digests.push(format!("{key} {digest}"));
        pins.check(key, digest, required)
    }
}

/// Runs `f`, returning its result and wall seconds. Timing goes through
/// the vendored bench harness, the workspace's one sanctioned clock.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, elapsed) = criterion::time_fn(f);
    (out, elapsed.as_secs_f64())
}

/// Runs `rep` at least three times and until its timed parts add up to
/// 0.2 s (at most 100 times), returning each repetition's seconds.
/// Set-up is repeated so its median is steady; each repetition rebuilds
/// the inputs from scratch.
fn repeat_setup(mut rep: impl FnMut() -> f64) -> Vec<f64> {
    let mut samples = Vec::new();
    while samples.len() < 3 || (samples.iter().sum::<f64>() < 0.2 && samples.len() < 100) {
        samples.push(rep());
    }
    samples
}

/// The timed phase's measurements.
struct Passes {
    /// Each pass's wall seconds.
    run_s: Vec<f64>,
    /// Peak resident set after set-up and the first pass. Later passes
    /// repeat the same work, and the peak they reach varies from run to
    /// run with the allocator's reuse of per-thread arenas.
    peak_rss_mb: f64,
}

impl Passes {
    fn write_to(&self, out: &mut Outcome) {
        out.metrics.median_s("run_s", &self.run_s);
        out.metrics.one("peak_rss_mb", self.peak_rss_mb, "MB");
        let times: Vec<String> = self.run_s.iter().map(|s| format!("{s:.3}")).collect();
        out.notes.push(format!("passes (s): {}", times.join(" ")));
    }
}

/// Runs `pass` once, then again while another pass of median length
/// still fits in `seconds`.
fn timed_passes(seconds: f64, mut pass: impl FnMut(usize)) -> Passes {
    let mut run_s = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut spent = 0.0;
    loop {
        let ((), dt) = timed(|| pass(run_s.len()));
        if run_s.is_empty() {
            peak_rss_mb = peak_rss();
        }
        run_s.push(dt);
        spent += dt;
        if spent + median(&run_s) > seconds {
            return Passes { run_s, peak_rss_mb };
        }
    }
}

/// The process's peak resident set so far, in MiB.
fn peak_rss() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    match opts.workload {
        Workload::ReplayPaper | Workload::SnoopStorm => replay(opts, &mut out),
        Workload::ReproSuite => repro(opts, &mut out),
        Workload::VerifyBattery => verify(opts, &mut out),
    }
    out
}

/// A replay workload's inputs.
struct ReplayInput {
    pins: Pins,
    cfg: HierarchyConfig,
    cpus: u16,
    /// References in the trace.
    refs: u64,
    /// Events in the trace: references and context switches.
    events: usize,
    /// The synthesized trace (kept for in-memory replay and the traced
    /// pass).
    trace: Option<Trace>,
    /// The encoded trace (`replay-paper` only).
    bytes: Option<Bytes>,
}

fn replay_config(opts: &Options) -> (WorkloadConfig, HierarchyConfig) {
    let (wl, l1, l2) = match opts.workload {
        Workload::ReplayPaper => (TracePreset::Thor.config(), 16 * 1024, 256 * 1024),
        _ => (
            WorkloadConfig {
                name: "snoop-storm".into(),
                cpus: 16,
                total_refs: 3_200_000,
                context_switches: 0,
                write_frac: 0.35,
                ..WorkloadConfig::default()
            },
            1024,
            64 * 1024,
        ),
    };
    let factor = match opts.size {
        Size::Full => 1.0,
        Size::Tiny => 0.01,
    };
    let wl = WorkloadConfig {
        seed: opts.seed,
        ..wl.scaled(factor)
    };
    let cfg = HierarchyConfig::direct_mapped(l1, l2, 16).expect("the paper's geometries are valid");
    (wl, cfg)
}

fn replay_setup(opts: &Options, out: &mut Outcome) -> ReplayInput {
    let (wl, cfg) = replay_config(opts);
    let encode = opts.workload == Workload::ReplayPaper;
    let (mut synth_s, mut encode_s) = (Vec::new(), Vec::new());
    let mut input = None;
    let setup_s = repeat_setup(|| {
        input = None;
        let ((pins, trace), synth) = timed(|| {
            let pins = Pins::parse(&opts.pins).expect("pins parse");
            let trace = try_generate(&wl).expect("workload configuration is valid");
            (pins, trace)
        });
        let (bytes, enc) = timed(|| encode.then(|| codec::encode(&trace)));
        synth_s.push(synth);
        if encode {
            encode_s.push(enc);
        }
        input = Some((pins, trace, bytes));
        synth + enc
    });
    let (pins, trace, bytes) = input.expect("set-up ran");
    out.metrics.median_s("setup_s", &setup_s);
    out.metrics.median_s("trace.synth_s", &synth_s);
    let refs = trace.summary().total_refs;
    if let Some(b) = &bytes {
        out.metrics.median_s("trace.encode_s", &encode_s);
        out.metrics
            .one("trace.bytes_per_ref", b.len() as f64 / refs as f64, "B");
    }
    // `vrsim run --trace-file` holds only the encoded bytes; the
    // synthesized events are kept only where they are replayed.
    let keep_trace = !encode || opts.trace;
    ReplayInput {
        pins,
        cfg,
        cpus: trace.cpus(),
        refs,
        events: trace.len(),
        trace: keep_trace.then_some(trace),
        bytes,
    }
}

fn system_stats(sys: &System) -> SimStats<'_> {
    let summary = sys.summary();
    SimStats {
        hierarchies: (0..sys.cpus() as u16)
            .map(|c| sys.hierarchy(CpuId::new(c)))
            .collect(),
        bus: summary.bus,
        outcomes: summary.outcomes,
        refs: summary.refs,
        switches: summary.context_switches,
    }
}

/// Simulated counts of one organization's replay, taken from the
/// untraced run.
fn record_counts(m: &mut Metrics, org: &str, sys: &System, totals: &mut CountTotals) {
    let s = sys.summary();
    let cpus = || (0..sys.cpus() as u16).map(|c| sys.events(CpuId::new(c)));
    m.one(format!("core.l1_hit_ratio.{org}"), s.h1, "ratio");
    m.one(
        format!("core.l2_local_hit_ratio.{org}"),
        s.h2_local,
        "ratio",
    );
    let msgs: u64 = cpus().map(|e| e.l1_coherence_messages()).sum();
    m.one(
        format!("core.l1_coherence_msgs.{org}"),
        msgs as f64,
        "count",
    );
    if org == "vr" {
        let sameset: u64 = cpus().map(|e| e.synonym_sameset).sum();
        let moves: u64 = cpus().map(|e| e.synonym_move).sum();
        let incl: u64 = cpus().map(|e| e.inclusion_invalidations).sum();
        m.one("core.synonyms_sameset", sameset as f64, "count");
        m.one("core.synonyms_move", moves as f64, "count");
        m.one("core.incl_invalidations", incl as f64, "count");
    }
    totals.bus.merge(&s.bus);
    totals.tlb_misses += s.outcomes.tlb_misses;
    totals.l1_misses += s.l1.misses();
    for c in 0..sys.cpus() as u16 {
        let wb = sys.write_buffer_stats(CpuId::new(c));
        totals.wb_pushed += wb.pushed;
        totals.wb_full_stalls += wb.full_stalls;
        totals.wb_high_water = totals.wb_high_water.max(u64::from(wb.high_water));
    }
}

/// Counts summed over the four organizations.
#[derive(Default)]
struct CountTotals {
    bus: vrcache_bus::stats::BusStats,
    tlb_misses: u64,
    l1_misses: u64,
    wb_pushed: u64,
    wb_full_stalls: u64,
    wb_high_water: u64,
}

impl CountTotals {
    fn write_metrics(&self, m: &mut Metrics) {
        for (op, key) in BusOp::ALL.into_iter().zip(BUS_OPS) {
            m.one(
                format!("bus.txns.{key}"),
                self.bus.count(op) as f64,
                "count",
            );
        }
        let fetches = self.bus.count(BusOp::ReadMiss) + self.bus.count(BusOp::ReadModifiedWrite);
        m.one(
            "bus.cache_supplied_ratio",
            ratio(self.bus.cache_supplied as f64, fetches as f64),
            "ratio",
        );
        m.one("mem.tlb_misses", self.tlb_misses as f64, "count");
        m.one(
            "mem.tlb_miss_ratio",
            ratio(self.tlb_misses as f64, self.l1_misses as f64),
            "ratio",
        );
        m.one("cache.wb_pushed", self.wb_pushed as f64, "count");
        m.one("cache.wb_full_stalls", self.wb_full_stalls as f64, "count");
        m.one("cache.wb_high_water", self.wb_high_water as f64, "count");
    }
}

fn replay(opts: &Options, out: &mut Outcome) {
    let name = opts.workload.name();
    let input = replay_setup(opts, out);
    let required = opts.size == Size::Full && opts.workload.default_seed() == Some(opts.seed);
    let mut digests: [Option<String>; 4] = Default::default();
    let mut replay_s: [Vec<f64>; 4] = Default::default();
    let (mut decode_s, mut new_s, mut inv_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = CountTotals::default();
    let mut vr_hits = None;

    let passes = timed_passes(opts.seconds, |pass| {
        let (mut dec, mut new, mut inv) = (0.0, 0.0, 0.0);
        for (k, kind) in HierarchyKind::ALL.into_iter().enumerate() {
            let org = ORGS[k];
            let what = format!("{name} {org} replay");
            let result = out.op(&what, || {
                let decoded;
                let trace = match &input.bytes {
                    Some(bytes) => {
                        let (result, dt) = timed(|| codec::decode(bytes));
                        decoded = result.map_err(|e| format!("decode: {e}"))?;
                        dec += dt;
                        &decoded
                    }
                    None => input.trace.as_ref().expect("in-memory trace kept"),
                };
                let (mut sys, dt) = timed(|| System::new(kind, trace.cpus(), &input.cfg));
                new += dt;
                let (result, dt) = timed(|| sys.run_events(trace.iter()));
                result.map_err(|e| e.to_string())?;
                replay_s[k].push(dt);
                let (result, dt) = timed(|| sys.check_invariants());
                result?;
                inv += dt;
                let digest = system_stats(&sys).digest();
                Ok((sys, digest))
            });
            let Some((sys, digest)) = result else {
                continue;
            };
            if pass == 0 {
                let size = if opts.size == Size::Tiny { ",tiny" } else { "" };
                let key = format!("{name} seed={}{size} {org}", opts.seed);
                let check = out.pin(&input.pins, &key, &digest, required);
                if let Err(e) = check {
                    out.failures.push(e);
                }
                record_counts(&mut out.metrics, org, &sys, &mut counts);
                if kind == HierarchyKind::Vr {
                    let s = sys.summary();
                    vr_hits = Some((s.h1, s.h2_local));
                }
                digests[k] = Some(digest);
            } else if digests[k].as_ref() != Some(&digest) {
                out.failures.push(format!(
                    "{what}: pass {pass} digest {digest} differs from pass 0"
                ));
            }
        }
        if input.bytes.is_some() {
            decode_s.push(dec);
        }
        new_s.push(new);
        inv_s.push(inv);
    });

    passes.write_to(out);
    let m = &mut out.metrics;
    let refs_per_pass = input.refs as f64 * HierarchyKind::ALL.len() as f64;
    m.set(
        "mref_per_s",
        refs_per_pass / median(&passes.run_s) / 1e6,
        "Mref/s",
        passes.run_s.len(),
    );
    for (k, org) in ORGS.iter().enumerate() {
        m.median_s(format!("sim.replay_s.{org}"), &replay_s[k]);
    }
    m.median_s("sim.system_new_s", &new_s);
    m.median_s("core.check_invariants_s", &inv_s);
    if input.bytes.is_some() {
        m.median_s("trace.decode_s", &decode_s);
        let events = input.events as f64 * ORGS.len() as f64;
        m.set(
            "trace.decode_ns_per_event",
            median(&decode_s) / events * 1e9,
            "ns",
            decode_s.len(),
        );
    }
    counts.write_metrics(m);
    let run = median(&passes.run_s);
    let replayed: f64 = replay_s.iter().map(|s| median(s)).sum();
    let decoded = median(&decode_s);
    out.notes.push(format!(
        "run_s {run:.3} s = decode {decoded:.3} s ({:.1}%) + replay {replayed:.3} s ({:.1}%) \
         + System::new {:.3} s + invariants {:.3} s + rest (medians over {} passes)",
        100.0 * decoded / run,
        100.0 * replayed / run,
        median(&new_s),
        median(&inv_s),
        passes.run_s.len()
    ));
    if let (Workload::ReplayPaper, Some((h1, h2))) = (opts.workload, vr_hits) {
        let e1 = (h1 - PAPER_THOR_16K_H1_VR).abs();
        let e2 = (h2 - PAPER_THOR_16K_H2_VR).abs();
        m.one("accuracy.h1_vr_abs_err", e1, "ratio");
        m.one("accuracy.h2_vr_abs_err", e2, "ratio");
        out.notes.push(format!(
            "accuracy (thor 16K/256K, V-R; simulated, not gated): h1 {h1:.4} vs paper \
             {PAPER_THOR_16K_H1_VR} (abs err {e1:.4}), h2 {h2:.4} vs paper \
             {PAPER_THOR_16K_H2_VR} (abs err {e2:.4})"
        ));
    }
    if opts.trace {
        traced_pass(opts, &input, &digests, &replay_s, out);
    }
}

/// Replays every organization once more through the span-recording
/// wrappers and requires the untraced run's simulated statistics.
fn traced_pass(
    opts: &Options,
    input: &ReplayInput,
    digests: &[Option<String>; 4],
    replay_s: &[Vec<f64>; 4],
    out: &mut Outcome,
) {
    let name = opts.workload.name();
    let trace = input.trace.as_ref().expect("traced pass keeps the trace");
    let mut log = SpanLog::default();
    let mut loop_s = 0.0;
    let mut layer_s = [0.0; SpanKind::ALL.len()];
    let mut snoops = traced::SnoopCounts::default();
    for (k, kind) in HierarchyKind::ALL.into_iter().enumerate() {
        let org = ORGS[k];
        let result = out.op(&format!("{name} {org} traced"), || {
            let run = traced::replay(kind, input.cpus, &input.cfg, trace.events())?;
            for h in &run.hierarchies {
                h.check_invariants()
                    .map_err(|e| format!("{}: {e}", h.cpu()))?;
            }
            let digest = SimStats {
                hierarchies: run
                    .hierarchies
                    .iter()
                    .map(|h| h as &dyn CacheHierarchy)
                    .collect(),
                bus: run.bus,
                outcomes: run.outcomes,
                refs: run.refs,
                switches: run.switches,
            }
            .digest();
            if digests[k].as_ref() != Some(&digest) {
                return Err(format!(
                    "traced digest {digest} differs from untraced {}",
                    digests[k].as_deref().unwrap_or("(failed)")
                ));
            }
            Ok(run)
        });
        let Some(run) = result else { continue };
        loop_s += run.loop_s;
        // Each layer's share of the sampled self time, applied to the
        // untraced replay time, so the layers sum to `sim.replay_s`.
        let untraced = median(&replay_s[k]);
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            layer_s[i] += run.share(kind) * untraced;
        }
        snoops.delivered += run.snoops.delivered;
        snoops.has_copy += run.snoops.has_copy;
        // Shielding: first-level coherence messages that snoops caused
        // (every message but inclusion invalidations, which the local miss
        // path causes), per snoop delivered.
        let from_snoops: u64 = run
            .hierarchies
            .iter()
            .map(|h| h.events().l1_coherence_messages() - h.events().inclusion_invalidations)
            .sum();
        out.metrics.one(
            format!("sim.snoop_l1_ratio.{org}"),
            ratio(from_snoops as f64, run.snoops.delivered as f64),
            "ratio",
        );
        out.notes.push(format!(
            "traced {org}: {} of {} references timed; instrumentation cost subtracted: \
             {} ns per span, {} ns per child span; timed spans scale to {:.3} s of self \
             time against {:.3} s untraced; {} spans kept, {} dropped",
            run.sampled_refs,
            run.refs,
            run.overhead.floor_ns,
            run.overhead.per_child_ns,
            run.estimated_total_s(),
            untraced,
            run.spans.len(),
            run.dropped_spans
        ));
        log.add(org, &run);
    }
    let m = &mut out.metrics;
    let untraced_replay_s: f64 = replay_s.iter().map(|s| median(s)).sum();
    m.one(
        "trace_overhead_ratio",
        ratio(loop_s, untraced_replay_s),
        "ratio",
    );
    for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
        let metric = match kind {
            SpanKind::Event => "sim.loop_self_s",
            SpanKind::Access => "core.access_self_s",
            SpanKind::Issue => "bus.issue_self_s",
            SpanKind::Snoop => "core.snoop_s",
            SpanKind::ContextSwitch => "core.context_switch_s",
        };
        m.one(metric, layer_s[i], "s");
    }
    m.one("sim.snoops_delivered", snoops.delivered as f64, "count");
    m.one(
        "sim.snoop_has_copy_ratio",
        ratio(snoops.has_copy as f64, snoops.delivered as f64),
        "ratio",
    );
    for (kind, prefix) in [
        (SpanKind::Access, "core.access_self_ns"),
        (SpanKind::Issue, "bus.issue_ns"),
    ] {
        let samples = log.self_ns(kind);
        for (q, suffix) in [(0.5, "p50"), (0.99, "p99")] {
            m.set(
                format!("{prefix}_{suffix}"),
                quantile(&samples, q),
                "ns",
                samples.len(),
            );
        }
    }
    if let Some(dir) = &opts.span_dir {
        // One file per workload, replaced by each traced run.
        let path = dir.join(format!("spans-{name}.tsv"));
        out.notes.push(match log.write_tsv(&path) {
            Ok(()) => format!(
                "spans: {} of seed {} written to {}",
                log.0.len(),
                opts.seed,
                path.display()
            ),
            Err(e) => format!("spans: cannot write {}: {e}", path.display()),
        });
    }
}

fn repro(opts: &Options, out: &mut Outcome) {
    let scale = match opts.size {
        Size::Full => REPRO_SCALE,
        Size::Tiny => 0.002,
    };
    // Each render builds its own inputs, so set-up is only loading the
    // pinned digests and listing the artifacts.
    let mut inputs = None;
    let setup_s = repeat_setup(|| {
        let (parsed, dt) = timed(|| {
            let pins = Pins::parse(&opts.pins).expect("pins parse");
            let artifacts: Vec<_> = Artifact::ALL.into_iter().zip(ARTIFACTS).collect();
            (pins, artifacts)
        });
        inputs = Some(parsed);
        dt
    });
    out.metrics.median_s("setup_s", &setup_s);
    let (pins, artifacts) = inputs.expect("set-up ran");
    let required = opts.size == Size::Full;
    let mut digests: Vec<Option<String>> = vec![None; artifacts.len()];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); artifacts.len()];
    let passes = timed_passes(opts.seconds, |pass| {
        for (i, (artifact, key)) in artifacts.iter().enumerate() {
            let what = format!("repro-suite {key} render");
            let rendered = out.op(&what, || {
                let (text, dt) = timed(|| artifact.render(scale));
                times[i].push(dt);
                Ok(text_digest(&text))
            });
            let Some(digest) = rendered else { continue };
            if pass == 0 {
                let pin_key = format!("repro-suite scale={scale} {key}");
                if let Err(e) = out.pin(&pins, &pin_key, &digest, required) {
                    out.failures.push(e);
                }
                digests[i] = Some(digest);
            } else if digests[i].as_ref() != Some(&digest) {
                out.failures.push(format!(
                    "{what}: pass {pass} digest {digest} differs from pass 0"
                ));
            }
        }
    });
    passes.write_to(out);
    for (i, (_, key)) in artifacts.iter().enumerate() {
        out.metrics.median_s(format!("repro.{key}_s"), &times[i]);
    }
}

fn verify(opts: &Options, out: &mut Outcome) {
    let mut inputs = None;
    let setup_s = repeat_setup(|| {
        let (parsed, dt) = timed(|| {
            let campaign = match opts.size {
                Size::Full => Campaign::nightly(),
                Size::Tiny => Campaign::smoke(),
            };
            let baseline = Baseline::parse(INJECT_BASELINE).expect("committed baseline parses");
            (Scope::all(), campaign, baseline)
        });
        inputs = Some(parsed);
        dt
    });
    out.metrics.median_s("setup_s", &setup_s);
    let (scopes, campaign, baseline) = inputs.expect("set-up ran");
    let pinned: std::collections::BTreeSet<&str> =
        baseline.entries.iter().map(|e| e.id.as_str()).collect();

    let mut scope_s: Vec<Vec<f64>> = vec![Vec::new(); scopes.len()];
    let (mut battery_s, mut campaign_s, mut row_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut states, mut transitions) = (0u64, 0u64);
    let passes = timed_passes(opts.seconds, |pass| {
        let (outcomes, dt) = timed(|| {
            run_scope_battery(&scopes, 1, |p| {
                if let Some(i) = scopes.iter().position(|s| s.name == p.name) {
                    scope_s[i].push(p.duration.as_secs_f64());
                }
            })
        });
        battery_s.push(dt);
        for outcome in outcomes {
            let report = out.op(&format!("verify-battery model {}", outcome.name), || {
                let report = outcome.result.map_err(|e| format!("panicked: {e}"))?;
                match &report.counterexample {
                    Some(cx) => Err(format!("violation: {}", cx.violation)),
                    None => Ok(report),
                }
            });
            if let (0, Some(r)) = (pass, report) {
                states += r.states;
                transitions += r.transitions;
            }
        }
        let (sdc, dt) = timed(|| {
            out.op(&format!("verify-battery inject {}", campaign.name), || {
                // Injected faults are meant to trip assertions, and the harness
                // catches each one; printing them would time the panic hook.
                let hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(|_| {}));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    campaign.run("", 1, |p| row_ms.push(p.duration.as_secs_f64() * 1e3))
                }));
                std::panic::set_hook(hook);
                let result = result.map_err(|_| "campaign panicked".to_string())?;
                Ok(result.sdc_ids(None))
            })
        });
        campaign_s.push(dt);
        let Some(sdc) = sdc else { return };
        let observed: std::collections::BTreeSet<&str> = sdc.iter().map(String::as_str).collect();
        // The nightly matrix pins exactly the baseline; a smaller campaign
        // may only reach a subset of it.
        let ok = match opts.size {
            Size::Full => observed == pinned,
            Size::Tiny => observed.is_subset(&pinned),
        };
        if !ok {
            let extra: Vec<_> = observed.difference(&pinned).take(3).collect();
            let missing: Vec<_> = pinned.difference(&observed).take(3).collect();
            out.failures.push(format!(
                "verify-battery inject {}: SDC ids differ from crates/inject/baseline.txt \
                 (unpinned {extra:?}, not reproduced {missing:?})",
                campaign.name
            ));
        }
    });
    passes.write_to(out);
    let m = &mut out.metrics;
    for (i, scope) in scopes.iter().enumerate() {
        m.median_s(format!("model.{}_s", scope.name), &scope_s[i]);
    }
    m.one("model.states", states as f64, "count");
    m.one("model.transitions", transitions as f64, "count");
    m.set(
        "model.states_per_s",
        ratio(states as f64, median(&battery_s)),
        "1/s",
        battery_s.len(),
    );
    m.set(
        "inject.run_ms_p50",
        quantile(&row_ms, 0.5),
        "ms",
        row_ms.len(),
    );
    m.set(
        "inject.run_ms_p99",
        quantile(&row_ms, 0.99),
        "ms",
        row_ms.len(),
    );
    m.set(
        "inject.runs_per_s",
        ratio(campaign.specs.len() as f64, median(&campaign_s)),
        "1/s",
        campaign_s.len(),
    );
}
