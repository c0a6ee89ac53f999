//! Workload orchestration: processes, scheduling, translation, interleaving.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vrcache_mem::access::CpuId;
use vrcache_mem::addr::{Asid, Ppn, VirtAddr};
use vrcache_mem::page_table::MemoryMap;

use super::engine::{ProcessEngine, ProcessLayout, ZipfTables};
use super::{SynthConfigError, WorkloadConfig};
use crate::record::{MemAccess, TraceEvent};
use crate::trace::Trace;

/// Ground-truth facts recorded while generating, used to cross-validate the
/// trace analyzers.
#[derive(Debug, Clone, Default)]
pub struct GenerationReport {
    /// Aggregated writes-per-procedure-call histogram (Table 1 truth).
    pub call_write_hist: BTreeMap<u32, u64>,
    /// Physical frames allocated by the page table.
    pub frames_allocated: u64,
    /// Number of processes that were created.
    pub processes: u32,
}

/// Generates a trace from `cfg`. See [`generate_with_report`] for the
/// variant that also returns generation ground truth.
///
/// # Panics
///
/// Panics on an invalid config; see [`try_generate`] for the fallible
/// form.
pub fn generate(cfg: &WorkloadConfig) -> Trace {
    generate_with_report(cfg).0
}

/// Fallible form of [`generate`].
///
/// # Errors
///
/// Returns a [`SynthConfigError`] describing the first invalid field.
pub fn try_generate(cfg: &WorkloadConfig) -> Result<Trace, SynthConfigError> {
    Ok(try_generate_with_report(cfg)?.0)
}

/// Generates a trace and its [`GenerationReport`].
///
/// # Panics
///
/// Panics if `cfg.cpus`, `cfg.processes_per_cpu` or `cfg.total_refs` is
/// zero, if `cfg.cpus × cfg.processes_per_cpu` exceeds 65535, if
/// `cfg.shared_pages` is zero while `cfg.p_shared > 0`, or if a Zipf
/// exponent or custom burst distribution is invalid; see
/// [`try_generate_with_report`] for the fallible form.
pub fn generate_with_report(cfg: &WorkloadConfig) -> (Trace, GenerationReport) {
    try_generate_with_report(cfg).expect("valid workload config")
}

/// Fallible form of [`generate_with_report`].
///
/// # Errors
///
/// Returns [`SynthConfigError::ZeroCpus`], [`SynthConfigError::ZeroProcesses`]
/// or [`SynthConfigError::ZeroRefs`] for zero volume parameters,
/// [`SynthConfigError::TooManyProcesses`] when the processes outnumber the
/// nonzero ASIDs, [`SynthConfigError::SharedPagesZero`] when shared
/// accesses are configured without a shared segment, and propagates the
/// Zipf/burst validation errors of [`ProcessEngine::new`].
///
/// The Zipf samplers depend only on `cfg`, so they are built once here
/// and shared by every process engine of the trace.
pub fn try_generate_with_report(
    cfg: &WorkloadConfig,
) -> Result<(Trace, GenerationReport), SynthConfigError> {
    if cfg.cpus == 0 {
        return Err(SynthConfigError::ZeroCpus);
    }
    if cfg.processes_per_cpu == 0 {
        return Err(SynthConfigError::ZeroProcesses);
    }
    // ASID 0 is the kernel's; every process needs its own nonzero ASID.
    let processes = u32::from(cfg.cpus) * u32::from(cfg.processes_per_cpu);
    if processes > u32::from(u16::MAX) {
        return Err(SynthConfigError::TooManyProcesses(processes));
    }
    if cfg.total_refs == 0 {
        return Err(SynthConfigError::ZeroRefs);
    }
    if cfg.p_shared != 0.0 && cfg.shared_pages == 0 {
        return Err(SynthConfigError::SharedPagesZero);
    }

    let zipf = ZipfTables::new(cfg)?;
    let page = cfg.page_size;
    let mut map = MemoryMap::new(page);

    // The "kernel" (ASID 0) owns the shared segment's frames.
    let kernel = Asid::new(0);
    let shared_ppns: Vec<Ppn> = (0..u64::from(cfg.shared_pages))
        .map(|i| {
            map.map_fresh(kernel, VirtAddr::new(0x6000_0000 + i * page.bytes()))
                .expect("kernel shared pages map once")
        })
        .collect();

    // One engine per (cpu, process); alias the shared segment into every
    // process at both its primary and its synonym base.
    let mut engines: Vec<Vec<ProcessEngine>> = Vec::with_capacity(cfg.cpus as usize);
    for c in 0..cfg.cpus {
        let mut per_cpu = Vec::with_capacity(cfg.processes_per_cpu as usize);
        for p in 0..cfg.processes_per_cpu {
            let asid = Asid::new(1 + c * cfg.processes_per_cpu + p);
            let layout = ProcessLayout::for_asid(asid);
            for (i, ppn) in shared_ppns.iter().enumerate() {
                let off = i as u64 * page.bytes();
                map.alias(asid, VirtAddr::new(layout.shared_base + off), *ppn)
                    .expect("shared alias maps once per process");
                map.alias(asid, VirtAddr::new(layout.shared_alias_base + off), *ppn)
                    .expect("synonym alias maps once per process");
            }
            per_cpu.push(ProcessEngine::with_zipf(cfg, asid, Arc::clone(&zipf))?);
        }
        engines.push(per_cpu);
    }

    // Per-CPU reference quotas and context-switch schedules.
    let cpus = cfg.cpus as usize;
    let mut quota = vec![cfg.total_refs / cfg.cpus as u64; cpus];
    for q in quota
        .iter_mut()
        .take((cfg.total_refs % cfg.cpus as u64) as usize)
    {
        *q += 1;
    }
    let mut switches_left = vec![cfg.context_switches / cfg.cpus as u64; cpus];
    for sw in switches_left
        .iter_mut()
        .take((cfg.context_switches % cfg.cpus as u64) as usize)
    {
        *sw += 1;
    }
    let interval: Vec<u64> = (0..cpus)
        .map(|c| {
            if switches_left[c] == 0 {
                u64::MAX
            } else {
                (quota[c] / (switches_left[c] + 1)).max(1)
            }
        })
        .collect();

    let mut active = vec![0usize; cpus];
    let mut emitted = vec![0u64; cpus];
    let mut since_switch = vec![0u64; cpus];
    let mut master = StdRng::seed_from_u64(cfg.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut events = Vec::with_capacity(cfg.total_refs as usize + cfg.context_switches as usize);

    loop {
        let mut progressed = false;
        for c in 0..cpus {
            if emitted[c] >= quota[c] {
                continue;
            }
            progressed = true;
            let run = master.gen_range(1..=4u32) as u64;
            for _ in 0..run.min(quota[c] - emitted[c]) {
                if switches_left[c] > 0 && since_switch[c] >= interval[c] {
                    let from = engines[c][active[c]].asid();
                    active[c] = (active[c] + 1) % cfg.processes_per_cpu as usize;
                    let to = engines[c][active[c]].asid();
                    events.push(TraceEvent::ContextSwitch {
                        cpu: CpuId::new(c as u16),
                        from,
                        to,
                    });
                    switches_left[c] -= 1;
                    since_switch[c] = 0;
                }
                let engine = &mut engines[c][active[c]];
                let asid = engine.asid();
                let (kind, vaddr) = engine.next_ref();
                let paddr = map.translate_or_map(asid, vaddr);
                events.push(TraceEvent::Access(MemAccess {
                    cpu: CpuId::new(c as u16),
                    asid,
                    kind,
                    vaddr,
                    paddr,
                }));
                emitted[c] += 1;
                since_switch[c] += 1;
            }
        }
        if !progressed {
            break;
        }
    }

    let mut report = GenerationReport {
        frames_allocated: map.frames_allocated(),
        processes,
        ..GenerationReport::default()
    };
    for per_cpu in &engines {
        for e in per_cpu {
            for (n, c) in e.call_write_histogram() {
                *report.call_write_hist.entry(*n).or_insert(0) += c;
            }
        }
    }

    Ok((Trace::new(cfg.name.clone(), cfg.cpus, page, events), report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(total: u64, cpus: u16, switches: u64) -> WorkloadConfig {
        WorkloadConfig {
            name: "test".into(),
            cpus,
            total_refs: total,
            context_switches: switches,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn exact_reference_count() {
        let t = generate(&cfg(10_001, 4, 0));
        let s = t.summary();
        assert_eq!(s.total_refs, 10_001);
        assert_eq!(s.context_switches, 0);
    }

    #[test]
    fn exact_context_switch_count() {
        let t = generate(&cfg(20_000, 2, 10));
        let s = t.summary();
        assert_eq!(s.context_switches, 10);
        // Switches alternate the active process on the switching cpu.
        let mut last_asid: Option<Asid> = None;
        for e in t.iter() {
            if let TraceEvent::ContextSwitch { cpu, from, to } = e {
                assert!(cpu.index() < 2);
                assert_ne!(from, to, "switch must change the process");
                last_asid = Some(*to);
            }
        }
        assert!(last_asid.is_some());
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&cfg(5_000, 2, 4));
        let b = generate(&cfg(5_000, 2, 4));
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let mut c1 = cfg(2_000, 1, 0);
        let mut c2 = cfg(2_000, 1, 0);
        c1.seed = 1;
        c2.seed = 2;
        assert_ne!(generate(&c1).events(), generate(&c2).events());
    }

    #[test]
    fn every_cpu_contributes() {
        let t = generate(&cfg(8_000, 4, 0));
        for c in 0..4 {
            let n = t.iter().filter(|e| e.cpu() == CpuId::new(c)).count();
            assert!(n >= 1_900, "cpu{c} only issued {n} refs");
        }
    }

    #[test]
    fn shared_frames_are_truly_shared() {
        // Two cpus must touch at least one common physical block.
        let mut c = cfg(30_000, 2, 0);
        c.p_shared = 0.2;
        let t = generate(&c);
        let page = c.page_size;
        let mut cpu_pages: Vec<std::collections::HashSet<u64>> =
            vec![Default::default(), Default::default()];
        for e in t.iter() {
            if let Some(a) = e.access() {
                if a.kind.is_data() {
                    cpu_pages[a.cpu.index()].insert(page.ppn_of(a.paddr).raw());
                }
            }
        }
        let common: Vec<_> = cpu_pages[0].intersection(&cpu_pages[1]).collect();
        assert!(!common.is_empty(), "no physical page shared between cpus");
    }

    #[test]
    fn synonyms_exist_in_trace() {
        // The same physical page must be reachable via two different
        // virtual page numbers within one address space.
        let mut c = cfg(40_000, 1, 0);
        c.p_shared = 0.3;
        c.p_synonym_alias = 0.3;
        let t = generate(&c);
        let page = c.page_size;
        let mut names: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
            Default::default();
        for e in t.iter() {
            if let Some(a) = e.access() {
                names
                    .entry(page.ppn_of(a.paddr).raw())
                    .or_default()
                    .insert(page.vpn_of(a.vaddr).raw());
            }
        }
        assert!(
            names.values().any(|vs| vs.len() > 1),
            "no synonym (two VPNs for one PPN) observed"
        );
    }

    #[test]
    fn translations_preserve_offsets() {
        let t = generate(&cfg(5_000, 2, 0));
        let page = t.page_size();
        for e in t.iter() {
            if let Some(a) = e.access() {
                assert_eq!(
                    page.offset_of(a.vaddr.raw()),
                    page.offset_of(a.paddr.raw()),
                    "offset mismatch in translation"
                );
            }
        }
    }

    #[test]
    fn report_carries_ground_truth() {
        let (t, report) = generate_with_report(&cfg(30_000, 2, 0));
        assert!(report.frames_allocated > 0);
        assert_eq!(report.processes, 4);
        assert!(!report.call_write_hist.is_empty());
        // Histogram total should not exceed the number of writes.
        let writes = t.summary().data_writes;
        let hist_writes: u64 = report
            .call_write_hist
            .iter()
            .map(|(n, c)| *n as u64 * c)
            .sum();
        assert!(hist_writes <= writes);
    }

    #[test]
    fn mix_matches_targets_at_scale() {
        let mut c = cfg(120_000, 4, 0);
        c.data_per_instr = 0.9;
        c.write_frac = 0.18;
        let s = generate(&c).summary();
        let dpi = s.data_refs() as f64 / s.instr_count as f64;
        assert!((dpi - 0.9).abs() < 0.05, "data/instr = {dpi}");
        assert!(
            (s.write_frac() - 0.18).abs() < 0.02,
            "wf = {}",
            s.write_frac()
        );
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        assert_eq!(
            try_generate(&cfg(100, 0, 0)).unwrap_err(),
            SynthConfigError::ZeroCpus
        );
        assert_eq!(
            try_generate(&cfg(0, 2, 0)).unwrap_err(),
            SynthConfigError::ZeroRefs
        );
        let mut c = cfg(100, 1, 0);
        c.processes_per_cpu = 0;
        assert_eq!(
            try_generate(&c).unwrap_err(),
            SynthConfigError::ZeroProcesses
        );
        let mut c = cfg(100, 1, 0);
        c.shared_pages = 0;
        c.p_shared = 0.1;
        assert_eq!(
            try_generate(&c).unwrap_err(),
            SynthConfigError::SharedPagesZero
        );
        let mut c = cfg(100, 1, 0);
        c.hot_zipf_s = f64::NAN;
        assert!(matches!(
            try_generate(&c).unwrap_err(),
            SynthConfigError::ZipfBadTheta(_)
        ));
    }

    #[test]
    fn process_count_is_bounded_by_the_nonzero_asids() {
        let many = |cpus, processes_per_cpu| WorkloadConfig {
            cpus,
            processes_per_cpu,
            total_refs: 1_000,
            shared_pages: 1,
            ..WorkloadConfig::default()
        };
        // 2 × 40000 used to wrap the u16 ASID onto the kernel's and panic.
        assert_eq!(
            try_generate(&many(2, 40_000)).unwrap_err(),
            SynthConfigError::TooManyProcesses(80_000)
        );
        assert_eq!(
            try_generate(&many(2, 32_768)).unwrap_err(),
            SynthConfigError::TooManyProcesses(65_536)
        );
        let (t, report) = try_generate_with_report(&many(3, 21_845)).unwrap();
        assert_eq!(report.processes, 65_535);
        assert_eq!(t.summary().total_refs, 1_000);
    }

    #[test]
    fn try_generate_matches_generate() {
        let c = cfg(2_000, 2, 2);
        assert_eq!(try_generate(&c).unwrap().events(), generate(&c).events());
    }
}
