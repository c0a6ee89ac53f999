//! Property tests for the binary trace codec: arbitrary event sequences
//! round-trip, realistic ones take one 8-byte word per reference, and
//! arbitrary byte soup never panics the decoder.

use proptest::prelude::*;
use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_mem::page::PageSize;
use vrcache_trace::codec::{decode, encode, Decoder};
use vrcache_trace::record::{MemAccess, TraceEvent};
use vrcache_trace::trace::Trace;

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        8 => (any::<u16>(), any::<u16>(), 0u8..3, any::<u64>(), any::<u64>()).prop_map(
            |(cpu, asid, kind, va, pa)| {
                let kind = match kind {
                    0 => AccessKind::InstrFetch,
                    1 => AccessKind::DataRead,
                    _ => AccessKind::DataWrite,
                };
                TraceEvent::Access(MemAccess {
                    cpu: CpuId::new(cpu),
                    asid: Asid::new(asid),
                    kind,
                    vaddr: VirtAddr::new(va),
                    paddr: PhysAddr::new(pa),
                })
            }
        ),
        1 => (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(cpu, from, to)| {
            TraceEvent::ContextSwitch {
                cpu: CpuId::new(cpu),
                from: Asid::new(from),
                to: Asid::new(to),
            }
        }),
    ]
}

/// The ASID CPU `cpu` runs throughout a realistic trace.
fn steady_asid(cpu: u16) -> u16 {
    100 + cpu
}

/// One reference of a trace translated at trace time, on CPU
/// `pick % cpus`: a virtual address below 2^32, a frame below 2^24 and
/// the same page offset on both sides, under the CPU's steady ASID. One
/// in five is instead made to escape, with a wide virtual address, a wide
/// frame, a differing offset, or a CPU without a current-ASID slot.
/// Paired with whether it fits one word.
fn realistic_access(
    cpus: u16,
    (pick, kind, vpn, offset, frame, escape): (u16, u8, u64, u64, u64, u8),
) -> (TraceEvent, bool) {
    let mut va = vpn << 12 | offset;
    let mut pa = frame << 12 | offset;
    let mut cpu = pick % cpus;
    match escape {
        0 => va |= 1 << 40,
        1 => pa |= 1 << 36,
        2 => pa ^= 4,
        3 => cpu += 64,
        _ => {}
    }
    let kind = match kind {
        0 => AccessKind::InstrFetch,
        1 => AccessKind::DataRead,
        _ => AccessKind::DataWrite,
    };
    let access = MemAccess {
        cpu: CpuId::new(cpu),
        asid: Asid::new(steady_asid(cpu)),
        kind,
        vaddr: VirtAddr::new(va),
        paddr: PhysAddr::new(pa),
    };
    (TraceEvent::Access(access), escape > 3)
}

/// A realistic trace: each CPU is switched to its steady ASID, then runs
/// [`realistic_access`]es. Paired with its count of one-word accesses.
fn realistic_trace() -> impl Strategy<Value = (Trace, u64)> {
    let parts = (
        any::<u16>(),
        0u8..3,
        0u64..1 << 20,
        0u64..4096,
        0u64..1 << 24,
        0u8..20,
    );
    (1u16..8, proptest::collection::vec(parts, 0..300)).prop_map(|(cpus, parts)| {
        let mut events: Vec<TraceEvent> = (0..cpus)
            .map(|cpu| TraceEvent::ContextSwitch {
                cpu: CpuId::new(cpu),
                from: Asid::new(0),
                to: Asid::new(steady_asid(cpu)),
            })
            .collect();
        let mut words = 0;
        for p in parts {
            let (access, fits) = realistic_access(cpus, p);
            events.push(access);
            words += u64::from(fits);
        }
        (Trace::new("real", cpus, PageSize::SIZE_4K, events), words)
    })
}

proptest! {
    #[test]
    fn realistic_traces_take_one_word_per_reference((t, words) in realistic_trace()) {
        let encoded = encode(&t);
        let back = decode(&encoded).unwrap();
        prop_assert_eq!(back.events(), t.events());
        let s = t.summary();
        let escapes = s.total_refs - words;
        let header = 4 + 2 + 2 + 8 + 2 + t.name().len() + 8;
        let expected = 8 * (words + s.context_switches) + 24 * escapes;
        prop_assert_eq!((encoded.len() - header) as u64, expected);
    }

    #[test]
    fn round_trip_any_events(
        name in "[a-z]{0,12}",
        cpus in 1u16..16,
        events in proptest::collection::vec(event_strategy(), 0..200),
    ) {
        let t = Trace::new(name, cpus, PageSize::SIZE_4K, events);
        let encoded = encode(&t);
        let back = decode(&encoded).unwrap();
        prop_assert_eq!(back.name(), t.name());
        prop_assert_eq!(back.cpus(), t.cpus());
        prop_assert_eq!(back.events(), t.events());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes); // must return, never panic
    }

    #[test]
    fn truncations_always_yield_typed_error(
        events in proptest::collection::vec(event_strategy(), 0..50),
        cut_frac in 0.0f64..1.0,
    ) {
        // Strictly truncating a valid encoding must surface as a typed
        // CodecError — there are no trailing pad bytes, so every proper
        // prefix loses header or event content.
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let bytes = encode(&t);
        let cut = (((bytes.len() - 1) as f64) * cut_frac) as usize;
        prop_assert!(decode(&bytes[..cut]).is_err(), "cut at {} decoded", cut);
    }

    #[test]
    fn decoder_never_panics_on_single_flip(
        events in proptest::collection::vec(event_strategy(), 1..30),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        // A bit flip may be masked (e.g. inside an address payload it
        // just decodes a different trace), so the contract is "typed
        // result, never panic" — exercised simply by returning.
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let mut bytes = encode(&t).to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let _ = decode(&bytes);
    }

    #[test]
    fn streaming_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        if let Ok(d) = Decoder::new(&bytes) {
            for item in d {
                let _ = item; // each yielded Result is typed, never a panic
            }
        }
    }

    #[test]
    fn streaming_decoder_surfaces_truncation(
        events in proptest::collection::vec(event_strategy(), 1..50),
        cut_frac in 0.0f64..1.0,
    ) {
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let bytes = encode(&t);
        let cut = (((bytes.len() - 1) as f64) * cut_frac) as usize;
        match Decoder::new(&bytes[..cut]) {
            Err(_) => {} // header or event-count cut caught up front
            Ok(d) => {
                // The count check in new() bounds remaining by the
                // buffer, so a surviving header means the cut landed
                // inside the event stream: iteration must end in a
                // typed error, never a panic.
                let results: Vec<_> = d.collect();
                prop_assert!(
                    results.last().is_none_or(|r| r.is_err()),
                    "cut at {} iterated cleanly",
                    cut
                );
            }
        }
    }

    #[test]
    fn streaming_decoder_never_panics_on_single_flip(
        events in proptest::collection::vec(event_strategy(), 1..30),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let t = Trace::new("t", 2, PageSize::SIZE_4K, events);
        let mut bytes = encode(&t).to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        if let Ok(d) = Decoder::new(&bytes) {
            for item in d {
                let _ = item;
            }
        }
    }
}
