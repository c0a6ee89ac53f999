//! Exhaustive error agreement between the batch [`decode`] and the
//! streaming [`Decoder`]: a small encoded trace is cut at every byte
//! offset, and every event tag byte and access-kind byte is overwritten
//! with every byte value. Both decoders must return the same result —
//! the same typed [`CodecError`] when the bytes are bad — and neither may
//! panic.

use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_mem::page::PageSize;
use vrcache_trace::codec::{decode, encode, CodecError, Decoder};
use vrcache_trace::record::{MemAccess, TraceEvent};
use vrcache_trace::trace::Trace;

/// Header bytes before the name: magic, version, cpus, page bytes, name
/// length.
const PRE_NAME: usize = 4 + 2 + 2 + 8 + 2;
/// Event-count field after the name.
const COUNT: usize = 8;
/// Encoded sizes of the two event kinds, tag byte included.
const ACCESS_LEN: usize = 1 + 2 + 2 + 1 + 8 + 8;
const SWITCH_LEN: usize = 1 + 2 + 2 + 2;

fn access(cpu: u16, kind: AccessKind, va: u64, pa: u64) -> TraceEvent {
    TraceEvent::Access(MemAccess {
        cpu: CpuId::new(cpu),
        asid: Asid::new(cpu + 1),
        kind,
        vaddr: VirtAddr::new(va),
        paddr: PhysAddr::new(pa),
    })
}

fn small_trace() -> Trace {
    let events = vec![
        access(0, AccessKind::InstrFetch, 0x1000, 0x9000),
        TraceEvent::ContextSwitch {
            cpu: CpuId::new(1),
            from: Asid::new(2),
            to: Asid::new(3),
        },
        access(1, AccessKind::DataRead, 0x2040, 0xa040),
        access(0, AccessKind::DataWrite, 0xffff_ffff_0000, 0x7_0000),
        TraceEvent::ContextSwitch {
            cpu: CpuId::new(0),
            from: Asid::new(1),
            to: Asid::new(4),
        },
    ];
    Trace::new("cuts", 2, PageSize::SIZE_4K, events)
}

/// The streaming decoder's verdict on `bytes`: every event, or the first
/// error (header or event).
fn streamed(bytes: &[u8]) -> Result<Vec<TraceEvent>, CodecError> {
    Decoder::new(bytes)?.collect()
}

/// The batch decoder's verdict, in the same shape.
fn batch(bytes: &[u8]) -> Result<Vec<TraceEvent>, CodecError> {
    decode(bytes).map(|t| t.events().to_vec())
}

fn agree(bytes: &[u8], what: &str) -> Result<Vec<TraceEvent>, CodecError> {
    let b = batch(bytes);
    assert_eq!(b, streamed(bytes), "decoders disagree: {what}");
    b
}

/// Byte offset of every event's tag, paired with whether it is an access.
fn tag_offsets(t: &Trace) -> Vec<(usize, bool)> {
    let mut at = PRE_NAME + t.name().len() + COUNT;
    t.iter()
        .map(|e| {
            let is_access = matches!(e, TraceEvent::Access(_));
            let here = at;
            at += if is_access { ACCESS_LEN } else { SWITCH_LEN };
            (here, is_access)
        })
        .collect()
}

#[test]
fn every_cut_is_the_same_truncation() {
    let t = small_trace();
    let bytes = encode(&t);
    assert_eq!(agree(&bytes, "uncut"), Ok(t.events().to_vec()));
    for cut in 0..bytes.len() {
        assert_eq!(
            agree(&bytes[..cut], &format!("cut at {cut}")),
            Err(CodecError::Truncated),
            "cut at {cut} of {}",
            bytes.len()
        );
    }
}

#[test]
fn every_tag_byte_value_agrees() {
    let t = small_trace();
    let bytes = encode(&t);
    let offsets = tag_offsets(&t);
    assert_eq!(offsets.len(), t.len());
    for &(at, is_access) in &offsets {
        assert_eq!(bytes[at], u8::from(!is_access), "tag layout at {at}");
        for value in 0..=u8::MAX {
            let mut corrupt = bytes.to_vec();
            corrupt[at] = value;
            let got = agree(&corrupt, &format!("tag {value:#x} at {at}"));
            if value > 1 {
                assert_eq!(got, Err(CodecError::Corrupt("event tag")), "at {at}");
            }
        }
    }
}

#[test]
fn every_kind_byte_value_agrees() {
    let t = small_trace();
    let bytes = encode(&t);
    for (at, _) in tag_offsets(&t).into_iter().filter(|&(_, a)| a) {
        let kind_at = at + 1 + 2 + 2;
        for value in 0..=u8::MAX {
            let mut corrupt = bytes.to_vec();
            corrupt[kind_at] = value;
            let got = agree(&corrupt, &format!("kind {value:#x} at {kind_at}"));
            if value > 2 {
                assert_eq!(got, Err(CodecError::Corrupt("access kind")), "at {kind_at}");
            } else {
                assert!(got.is_ok(), "kind {value} is valid at {kind_at}");
            }
        }
    }
}

#[test]
fn header_faults_agree() {
    let t = small_trace();
    let bytes = encode(&t);
    let name_at = PRE_NAME;
    let cases: [(usize, u8, CodecError); 4] = [
        (0, b'X', CodecError::BadMagic),
        (4, 0xFF, CodecError::UnsupportedVersion(0x00FF)),
        (8, 0x03, CodecError::Corrupt("page size")),
        (name_at, 0xFF, CodecError::Corrupt("name")),
    ];
    for (at, value, want) in cases {
        let mut corrupt = bytes.to_vec();
        corrupt[at] = value;
        assert_eq!(agree(&corrupt, &format!("header byte {at}")), Err(want));
    }
    // An event count beyond the buffer is refused before any event.
    let count_at = PRE_NAME + t.name().len();
    let mut corrupt = bytes.to_vec();
    corrupt[count_at..count_at + COUNT].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(agree(&corrupt, "huge count"), Err(CodecError::Truncated));
}
