//! The traced pass: the simulator rebuilt from its public parts, with
//! benchmark-side wrappers that record spans around every call into the
//! core and bus layers.
//!
//! [`Traced`] wraps one processor's hierarchy and records `core.access`,
//! `core.snoop` and `core.context_switch` spans; the bus it hands to the
//! wrapped hierarchy is a [`TracedBus`] that records `bus.issue` spans.
//! Each reference's trip through the replay loop is a `sim.event` span
//! around its access. Spans nest through a per-thread stack, so a span's
//! self time is its duration minus the time its children cover: an
//! access's self time excludes the bus transactions it issued, and an
//! issue's self time excludes the snoop handlers of the other
//! hierarchies.
//!
//! Reading the clock costs about as much as an L1 hit, so only a sample
//! of references is timed: one in [`SAMPLE_ONE_IN`], chosen by a hash of
//! the event index so the sample does not follow the trace's CPU
//! interleaving, plus every context switch. Sampled spans are kept in
//! memory and written out at the end. The cost the instrumentation adds
//! inside a span is measured before each replay and subtracted (see
//! [`Overhead`]); what remains gives each layer's share of the replay's
//! self time ([`TracedRun::share`]), which the benchmark multiplies by the
//! untraced replay time.

use std::cell::RefCell;
use std::io::Write as _;

use vrcache::bus_api::{BusRequest, BusResponse, SnoopReply, SystemBus};
use vrcache::config::HierarchyConfig;
use vrcache::events::HierarchyEvents;
use vrcache::goodman::GoodmanHierarchy;
use vrcache::hierarchy::{AccessOutcome, BlockPresence, CacheHierarchy, SynonymKind};
use vrcache::invariant::InvariantViolation;
use vrcache::rr::{InclusionMode, RrHierarchy};
use vrcache::vr::VrHierarchy;
use vrcache_bus::memory::MainMemory;
use vrcache_bus::oracle::{CoherenceViolation, VersionOracle};
use vrcache_bus::stats::BusStats;
use vrcache_bus::txn::BusTransaction;
use vrcache_cache::geometry::BlockId;
use vrcache_cache::stats::CacheStats;
use vrcache_cache::write_buffer::WriteBufferStats;
use vrcache_mem::access::CpuId;
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_sim::snoop::{SnoopObserver, SnoopingBus};
use vrcache_sim::system::{HierarchyKind, OutcomeCounts};
use vrcache_trace::record::{MemAccess, TraceEvent};

/// One reference in this many is timed and has its spans kept.
pub const SAMPLE_ONE_IN: u64 = 256;

/// Whether the reference at event index `i` is sampled: the top byte of
/// a Fibonacci hash of `i`, so one index in 256 on average.
fn sampled(i: u64) -> bool {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56 == 0
}

/// The layer boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One reference's trip through the replay loop: hierarchy take/put,
    /// bus construction, the access itself and outcome tallying.
    Event,
    /// `CacheHierarchy::access` of the referencing processor.
    Access,
    /// `SystemBus::issue` of one bus transaction.
    Issue,
    /// `CacheHierarchy::snoop` of one other processor.
    Snoop,
    /// `CacheHierarchy::context_switch`.
    ContextSwitch,
}

impl SpanKind {
    /// Every kind.
    pub const ALL: [SpanKind; 5] = [
        SpanKind::Event,
        SpanKind::Access,
        SpanKind::Issue,
        SpanKind::Snoop,
        SpanKind::ContextSwitch,
    ];

    /// The span's name in the span file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Event => "sim.event",
            SpanKind::Access => "core.access",
            SpanKind::Issue => "bus.issue",
            SpanKind::Snoop => "core.snoop",
            SpanKind::ContextSwitch => "core.context_switch",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One kept span. Spans of one reference share `ref_id`.
///
/// The workspace reads the wall clock only through `criterion::time_fn`,
/// which times a closure, so a span carries its measured duration and
/// logical start and end stamps: the number of span boundaries (opens
/// and closes) the replay had passed when it opened and closed. The
/// stamps order and nest spans; the durations time them.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The trace event (reference or context switch) that caused it.
    pub ref_id: u64,
    /// This span's id within the replay.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The layer boundary.
    pub kind: SpanKind,
    /// Logical stamp of the span's opening.
    pub start: u64,
    /// Logical stamp of the span's closing.
    pub end: u64,
    /// Duration net of instrumentation cost.
    pub dur_ns: u64,
    /// Duration minus the time covered by child spans, net of
    /// instrumentation cost.
    pub self_ns: u64,
}

const EMPTY_SPAN: Span = Span {
    ref_id: 0,
    id: 0,
    parent: None,
    kind: SpanKind::Event,
    start: 0,
    end: 0,
    dur_ns: 0,
    self_ns: 0,
};

/// The cost the instrumentation adds, measured on empty spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overhead {
    /// What an empty span measures as its own duration.
    pub floor_ns: u64,
    /// What each child span adds to its parent's self time outside the
    /// child's own measured interval.
    pub per_child_ns: u64,
}

impl Overhead {
    /// Measures both costs: rounds of one parent span around 64 empty
    /// child spans, medians over the rounds.
    fn measure() -> Overhead {
        const CHILDREN: usize = 64;
        TRACER.with(|t| {
            *t.borrow_mut() = Some(Tracer::new(Overhead::default(), CHILDREN + 1));
        });
        let (mut floors, mut per_child) = (Vec::new(), Vec::new());
        for _ in 0..32 {
            begin_event(0, true);
            in_span(SpanKind::Access, || {
                for _ in 0..CHILDREN {
                    in_span(SpanKind::Snoop, || ());
                }
            });
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                let t = t.as_mut().expect("tracer installed");
                let (parent, children) = t.spans[..t.kept]
                    .split_last()
                    .expect("calibration spans kept");
                let child_ns: u64 = children.iter().map(|s| s.dur_ns).sum();
                let floor = child_ns / CHILDREN as u64;
                floors.push(floor as f64);
                let parent_self = parent.self_ns.saturating_sub(floor);
                per_child.push((parent_self / CHILDREN as u64) as f64);
                t.kept = 0;
            });
        }
        Overhead {
            floor_ns: crate::metrics::median(&floors) as u64,
            per_child_ns: crate::metrics::median(&per_child) as u64,
        }
    }
}

/// Summed self times of timed spans by [`SpanKind`], net of
/// instrumentation cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Summed self times, indexed in [`SpanKind::ALL`] order.
    pub self_ns: [u64; 5],
}

#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    start: u64,
    child_ns: u64,
    children: u64,
    descendants: u64,
    id: u32,
}

/// Deepest nesting the replay produces is event > access > issue >
/// snoop; a deeper span runs untimed.
const MAX_DEPTH: usize = 8;

/// Span state of the running replay. Its storage is allocated up front,
/// so timed spans never allocate.
struct Tracer {
    overhead: Overhead,
    stack: [Frame; MAX_DEPTH],
    depth: usize,
    totals: Totals,
    spans: Vec<Span>,
    kept: usize,
    dropped: u64,
    next_id: u32,
    stamp: u64,
    ref_id: u64,
    timing: bool,
}

impl Tracer {
    fn new(overhead: Overhead, capacity: usize) -> Tracer {
        Tracer {
            overhead,
            stack: [Frame::default(); MAX_DEPTH],
            depth: 0,
            totals: Totals::default(),
            spans: vec![EMPTY_SPAN; capacity],
            kept: 0,
            dropped: 0,
            next_id: 0,
            stamp: 0,
            ref_id: 0,
            timing: false,
        }
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Runs `f`, inside a timed span of `kind` when the current event is
/// sampled.
fn in_span<T>(kind: SpanKind, f: impl FnOnce() -> T) -> T {
    let timing = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut().filter(|t| t.timing && t.depth < MAX_DEPTH) else {
            return false;
        };
        t.next_id += 1;
        t.stamp += 1;
        t.stack[t.depth] = Frame {
            start: t.stamp - 1,
            child_ns: 0,
            children: 0,
            descendants: 0,
            id: t.next_id - 1,
        };
        t.depth += 1;
        true
    });
    if !timing {
        return f();
    }
    let (out, elapsed) = criterion::time_fn(f);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer installed for the span");
        t.depth -= 1;
        let frame = t.stack[t.depth];
        let raw = elapsed.as_nanos() as u64;
        let o = t.overhead;
        // An empty span measures `floor`; each child adds `per_child`
        // outside its own interval, and each descendant its own floor.
        let dur_ns =
            raw.saturating_sub(o.floor_ns + frame.descendants * (o.per_child_ns + o.floor_ns));
        let self_ns = raw
            .saturating_sub(frame.child_ns)
            .saturating_sub(o.floor_ns + frame.children * o.per_child_ns);
        t.totals.self_ns[kind.index()] += self_ns;
        let parent = t.depth.checked_sub(1).map(|p| {
            let p = &mut t.stack[p];
            p.child_ns += raw;
            p.children += 1;
            p.descendants += 1 + frame.descendants;
            p.id
        });
        t.stamp += 1;
        let span = Span {
            ref_id: t.ref_id,
            id: frame.id,
            parent,
            kind,
            start: frame.start,
            end: t.stamp - 1,
            dur_ns,
            self_ns,
        };
        match t.spans.get_mut(t.kept) {
            Some(slot) => {
                *slot = span;
                t.kept += 1;
            }
            None => t.dropped += 1,
        }
    });
    out
}

fn begin_event(ref_id: u64, timing: bool) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.ref_id = ref_id;
            t.timing = timing;
        }
    });
}

/// A hierarchy whose calls are recorded as spans.
pub struct Traced(Box<dyn CacheHierarchy>);

/// The bus a [`Traced`] hierarchy hands to the hierarchy it wraps.
pub struct TracedBus<'a>(&'a mut dyn SystemBus);

impl SystemBus for TracedBus<'_> {
    fn issue(&mut self, request: BusRequest) -> BusResponse {
        in_span(SpanKind::Issue, || self.0.issue(request))
    }
}

impl CacheHierarchy for Traced {
    fn access(
        &mut self,
        access: &MemAccess,
        bus: &mut dyn SystemBus,
        oracle: &mut VersionOracle,
    ) -> Result<AccessOutcome, CoherenceViolation> {
        in_span(SpanKind::Access, || {
            self.0.access(access, &mut TracedBus(bus), oracle)
        })
    }

    fn context_switch(&mut self, from: Asid, to: Asid) {
        in_span(SpanKind::ContextSwitch, || self.0.context_switch(from, to));
    }

    fn tlb_shootdown(&mut self, asid: Asid, vpn: Vpn, bus: &mut dyn SystemBus) -> u32 {
        self.0.tlb_shootdown(asid, vpn, bus)
    }

    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {
        in_span(SpanKind::Snoop, || self.0.snoop(txn))
    }

    fn coh_presence(&self, block: BlockId) -> BlockPresence {
        self.0.coh_presence(block)
    }

    fn cpu(&self) -> CpuId {
        self.0.cpu()
    }

    fn l1_stats(&self) -> CacheStats {
        self.0.l1_stats()
    }

    fn l1_split_stats(&self) -> Option<(CacheStats, CacheStats)> {
        self.0.l1_split_stats()
    }

    fn l2_stats(&self) -> CacheStats {
        self.0.l2_stats()
    }

    fn events(&self) -> &HierarchyEvents {
        self.0.events()
    }

    fn write_buffer_stats(&self) -> WriteBufferStats {
        self.0.write_buffer_stats()
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.0.check_invariants()
    }
}

/// Snoop deliveries seen through the bus observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnoopCounts {
    /// Snoops delivered to a hierarchy.
    pub delivered: u64,
    /// Of those, snoops that found a copy.
    pub has_copy: u64,
}

impl SnoopObserver for SnoopCounts {
    fn on_snoop(&mut self, _: CpuId, _: BlockPresence, _: &BusTransaction, reply: &SnoopReply) {
        self.delivered += 1;
        self.has_copy += u64::from(reply.has_copy);
    }
}

/// Everything one traced replay produced.
pub struct TracedRun {
    /// The per-processor hierarchies, for statistics and invariants.
    pub hierarchies: Vec<Traced>,
    /// Bus traffic.
    pub bus: BusStats,
    /// Per-reference outcome tallies, counted as `System` counts them.
    pub outcomes: OutcomeCounts,
    /// References replayed.
    pub refs: u64,
    /// References timed.
    pub sampled_refs: u64,
    /// Context switches replayed (all timed).
    pub switches: u64,
    /// Snoop deliveries.
    pub snoops: SnoopCounts,
    /// Summed times of the timed spans.
    pub totals: Totals,
    /// Kept spans.
    pub spans: Vec<Span>,
    /// Timed spans not kept because the span buffer was full (they still
    /// count in `totals`).
    pub dropped_spans: u64,
    /// The instrumentation cost subtracted from every span.
    pub overhead: Overhead,
    /// Wall seconds of the replay loop.
    pub loop_s: f64,
}

impl TracedRun {
    /// Self seconds of `kind` spans over every event, estimated from the
    /// timed spans: sampled reference spans scaled up to all references.
    ///
    /// Each clock read stalls the pipeline, so a timed span of a few
    /// dozen nanoseconds runs slower than the same work untimed, and
    /// these estimates sum to more than the replay takes. Their shares
    /// ([`share`](Self::share)) are what the benchmark reports.
    pub fn estimated_self_s(&self, kind: SpanKind) -> f64 {
        let scale = match kind {
            SpanKind::ContextSwitch => 1.0,
            _ => crate::metrics::ratio(self.refs as f64, self.sampled_refs as f64),
        };
        scale * self.totals.self_ns[kind.index()] as f64 * 1e-9
    }

    /// The estimates of every span kind, summed.
    pub fn estimated_total_s(&self) -> f64 {
        SpanKind::ALL
            .iter()
            .map(|&k| self.estimated_self_s(k))
            .sum()
    }

    /// `kind`'s share of the replay's self time.
    pub fn share(&self, kind: SpanKind) -> f64 {
        crate::metrics::ratio(self.estimated_self_s(kind), self.estimated_total_s())
    }
}

/// Builds one processor's hierarchy of `kind`, as `System::new` does.
fn build(kind: HierarchyKind, cpu: CpuId, cfg: &HierarchyConfig) -> Box<dyn CacheHierarchy> {
    match kind {
        HierarchyKind::Vr => Box::new(VrHierarchy::new(cpu, cfg)),
        HierarchyKind::RrInclusive => {
            Box::new(RrHierarchy::new(cpu, cfg, InclusionMode::Inclusive))
        }
        HierarchyKind::RrNonInclusive => {
            Box::new(RrHierarchy::new(cpu, cfg, InclusionMode::NonInclusive))
        }
        HierarchyKind::GoodmanSingleLevel => Box::new(GoodmanHierarchy::new(cpu, cfg)),
    }
}

/// Replays `events` on a `cpus`-processor system of `kind` built from
/// public parts, recording spans. Mirrors `System::run_events`.
///
/// # Errors
///
/// Fails on the first coherence violation or out-of-range processor.
pub fn replay(
    kind: HierarchyKind,
    cpus: u16,
    cfg: &HierarchyConfig,
    events: &[TraceEvent],
) -> Result<TracedRun, String> {
    let mut hs: Vec<Option<Box<Traced>>> = (0..cpus)
        .map(|c| Some(Box::new(Traced(build(kind, CpuId::new(c), cfg)))))
        .collect();
    let mut memory = MainMemory::new();
    let mut oracle = VersionOracle::new();
    let mut bus = BusStats::default();
    let mut snoops = SnoopCounts::default();
    let mut outcomes = OutcomeCounts::default();
    let (mut refs, mut sampled_refs, mut switches) = (0u64, 0u64, 0u64);
    let subblocks = cfg.subblocks();

    let overhead = Overhead::measure();
    // Room for 16 spans per sampled reference on average; a snoop-heavy
    // 16-CPU stream keeps about 5.
    let capacity = (events.len() / SAMPLE_ONE_IN as usize + 1) * 16;
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(overhead, capacity)));
    let (result, elapsed) = criterion::time_fn(|| {
        for (i, event) in events.iter().enumerate() {
            let i = i as u64;
            match event {
                TraceEvent::Access(a) => {
                    let timed = sampled(i);
                    sampled_refs += u64::from(timed);
                    begin_event(i, timed);
                    in_span(SpanKind::Event, || {
                        let idx = a.cpu.index();
                        let Some(mut h) = hs.get_mut(idx).and_then(Option::take) else {
                            return Err(format!("trace references unknown {}", a.cpu));
                        };
                        let result = {
                            let mut sb =
                                SnoopingBus::new(a.cpu, &mut hs, &mut memory, &mut bus, subblocks)
                                    .with_observer(&mut snoops);
                            h.access(a, &mut sb, &mut oracle)
                        };
                        hs[idx] = Some(h);
                        let o = result.map_err(|e| format!("coherence violation: {e}"))?;
                        if o.l1_hit {
                            outcomes.l1_hits += 1;
                        } else if o.l2_hit == Some(true) {
                            outcomes.l2_hits += 1;
                        } else {
                            outcomes.misses += 1;
                        }
                        match o.synonym {
                            Some(SynonymKind::SameSet) => outcomes.synonym_sameset += 1,
                            Some(SynonymKind::Move) => outcomes.synonym_move += 1,
                            None => {}
                        }
                        if o.tlb_hit == Some(false) {
                            outcomes.tlb_misses += 1;
                        }
                        refs += 1;
                        Ok(())
                    })?;
                }
                TraceEvent::ContextSwitch { cpu, from, to } => {
                    let Some(h) = hs.get_mut(cpu.index()).and_then(Option::as_mut) else {
                        return Err(format!("trace references unknown {cpu}"));
                    };
                    begin_event(i, true);
                    h.context_switch(*from, *to);
                    switches += 1;
                }
            }
        }
        Ok(())
    });
    let loop_s = elapsed.as_secs_f64();
    let tracer = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("tracer installed for the replay");
    result?;
    Ok(TracedRun {
        hierarchies: hs
            .into_iter()
            .map(|h| *h.expect("every hierarchy returned"))
            .collect(),
        bus,
        outcomes,
        refs,
        sampled_refs,
        switches,
        snoops,
        totals: tracer.totals,
        spans: tracer.spans[..tracer.kept].to_vec(),
        dropped_spans: tracer.dropped,
        overhead,
        loop_s,
    })
}

/// Kept spans of several traced replays, tagged with their organization.
#[derive(Default)]
pub struct SpanLog(pub Vec<(&'static str, Span)>);

impl SpanLog {
    /// Adds one replay's spans under organization key `org`.
    pub fn add(&mut self, org: &'static str, run: &TracedRun) {
        self.0.extend(run.spans.iter().map(|s| (org, *s)));
    }

    /// Self times of kept `kind` spans, in nanoseconds.
    pub fn self_ns(&self, kind: SpanKind) -> Vec<f64> {
        self.0
            .iter()
            .filter(|(_, s)| s.kind == kind)
            .map(|(_, s)| s.self_ns as f64)
            .collect()
    }

    /// Writes the kept spans to `path` as tab-separated lines, creating
    /// its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of a failed create or write.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "org\tref\tspan\tparent\tname\tstart\tend\tdur_ns\tself_ns"
        )?;
        for (org, s) in &self.0 {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{org}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.ref_id,
                s.id,
                s.kind.name(),
                s.start,
                s.end,
                s.dur_ns,
                s.self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_keeps_about_one_in_256() {
        let n = (0..1_000_000u64).filter(|&i| sampled(i)).count();
        assert!((3_500..4_300).contains(&n), "{n}");
        assert!(sampled(0));
    }
}
