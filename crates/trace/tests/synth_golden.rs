//! Byte-golden pin of trace synthesis.
//!
//! Each case synthesizes one trace and pins a 64-bit FNV-1a digest of a
//! canonical serialization of its events, together with the frame count
//! and process count of the [`GenerationReport`]. Any change to the page
//! table's first-touch frame order, to the RNG draw order of a process
//! engine, or to the scheduler's interleaving changes a digest.
//!
//! The canonical serialization is the version-1 trace format, written by
//! the test-local [`v1`] writer, so a change to the library's codec never
//! moves a digest. What the codec spends is pinned separately: each
//! case's [`codec::encode`] length is a column of its own, a
//! deterministic cost proxy that fails when the stored format grows.
//!
//! The cases cover the three presets at scale 0.01, the default
//! [`WorkloadConfig`], and a 16-CPU × 3-process workload whose context
//! switches rotate through every process (ASIDs 1..=48) and whose shared
//! segment is reached through both of its virtual bases.
//!
//! After an intended change in synthesized traces, the failure message
//! prints the full table of new values to paste over [`GOLDEN`].

mod v1;

use vrcache_trace::codec;
use vrcache_trace::presets::TracePreset;
use vrcache_trace::synth::{generate_with_report, WorkloadConfig};

/// `(case, fnv1a(v1::encode(trace)), codec::encode(trace).len(),
/// frames_allocated, processes)`.
const GOLDEN: &[(&str, u64, usize, u64, u32)] = &[
    ("thor@0.01", 0x7ddf938a7d06f083, 262734, 123, 8),
    ("pops@0.01", 0xc0019d39a8b0a012, 262974, 155, 8),
    ("abaqus@0.01", 0xbc39487415316fb1, 95768, 138, 6),
    ("default", 0xdaf8d69c6961af85, 800097, 244, 8),
    ("16x3", 0x72f27db4c1dacb19, 769054, 1259, 48),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sixteen CPUs with three processes each: 48 user address spaces plus
/// the kernel's, six switches per CPU so every process runs, and enough
/// shared and alias traffic to touch both shared bases of every process.
fn sixteen_by_three() -> WorkloadConfig {
    WorkloadConfig {
        name: "16x3".into(),
        cpus: 16,
        processes_per_cpu: 3,
        total_refs: 96_000,
        context_switches: 96,
        seed: 0x16_03,
        p_shared: 0.10,
        p_synonym_alias: 0.25,
        ..WorkloadConfig::default()
    }
}

fn cases() -> Vec<(&'static str, WorkloadConfig)> {
    vec![
        ("thor@0.01", TracePreset::Thor.config().scaled(0.01)),
        ("pops@0.01", TracePreset::Pops.config().scaled(0.01)),
        ("abaqus@0.01", TracePreset::Abaqus.config().scaled(0.01)),
        ("default", WorkloadConfig::default()),
        ("16x3", sixteen_by_three()),
    ]
}

#[test]
fn synthesized_traces_match_the_golden_digests() {
    let actual: Vec<(&str, u64, usize, u64, u32)> = cases()
        .into_iter()
        .map(|(name, cfg)| {
            let (trace, report) = generate_with_report(&cfg);
            let digest = fnv1a(&v1::encode(&trace));
            let stored = codec::encode(&trace).len();
            (
                name,
                digest,
                stored,
                report.frames_allocated,
                report.processes,
            )
        })
        .collect();
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(n, d, b, f, p)| format!("    ({n:?}, {d:#018x}, {b}, {f}, {p}),\n"))
            .collect();
        panic!("synthesized traces changed; new GOLDEN table:\n{table}");
    }
}

#[test]
fn every_case_round_trips_through_both_versions() {
    for (name, cfg) in cases() {
        let (trace, _) = generate_with_report(&cfg);
        let from_v1 = codec::decode(&v1::encode(&trace)).expect("v1 decodes");
        assert_eq!(from_v1, trace, "{name} via v1");
        let from_v2 = codec::decode(&codec::encode(&trace)).expect("v2 decodes");
        assert_eq!(from_v2, trace, "{name} via v2");
    }
}

#[test]
fn sixteen_by_three_reaches_every_process_and_both_shared_bases() {
    use std::collections::BTreeSet;
    use vrcache_trace::synth::ProcessLayout;

    let cfg = sixteen_by_three();
    let (trace, _) = generate_with_report(&cfg);
    let page = cfg.page_size.bytes();
    let span = u64::from(cfg.shared_pages) * page;
    let mut asids = BTreeSet::new();
    let (mut primary, mut alias) = (BTreeSet::new(), BTreeSet::new());
    for a in trace.iter().filter_map(|e| e.access()) {
        asids.insert(a.asid.raw());
        let layout = ProcessLayout::for_asid(a.asid);
        let va = a.vaddr.raw();
        if (layout.shared_base..layout.shared_base + span).contains(&va) {
            primary.insert(a.asid.raw());
        }
        if (layout.shared_alias_base..layout.shared_alias_base + span).contains(&va) {
            alias.insert(a.asid.raw());
        }
    }
    let all: BTreeSet<u16> = (1..=48).collect();
    assert_eq!(asids, all, "every user ASID issues references");
    assert_eq!(primary, all, "every process uses its primary shared base");
    assert_eq!(alias, all, "every process uses its synonym shared base");
}
