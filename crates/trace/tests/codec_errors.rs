//! Exhaustive error agreement between the batch [`decode`] and the
//! streaming [`Decoder`], for both trace format versions: a small encoded
//! trace is cut at every byte offset, and every event's first byte and
//! every access-kind byte is overwritten with every byte value. Both
//! decoders must return the same result — the same typed [`CodecError`]
//! when the bytes are bad — and neither may panic.

mod v1;

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
        access(0, AccessKind::DataRead, 0x1010, 0x9010),
        TraceEvent::ContextSwitch {
            cpu: CpuId::new(1),
            from: Asid::new(2),
            to: Asid::new(3),
        },
        access(1, AccessKind::DataRead, 0x2040, 0xa040),
        access(1, AccessKind::DataWrite, 0x2050, 0xa050),
        access(0, AccessKind::DataWrite, 0xffff_ffff_0000, 0x7_0000),
        TraceEvent::ContextSwitch {
            cpu: CpuId::new(0),
            from: Asid::new(1),
            to: Asid::new(4),
        },
    ];
    Trace::new("cuts", 2, PageSize::SIZE_4K, events)
}

/// How each event of [`small_trace`] is stored in one format version.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Record {
    /// A version-2 one-word access.
    Word,
    /// An access with its own kind byte, `kind_at` bytes into the record.
    Access {
        kind_at: usize,
    },
    Switch,
}

struct Version {
    number: u16,
    bytes: Vec<u8>,
    /// Each event's record and its length.
    records: [(Record, usize); 7],
}

fn versions() -> [Version; 2] {
    let t = small_trace();
    let v1_access = (Record::Access { kind_at: 5 }, 22);
    let v1_switch = (Record::Switch, 7);
    let escape = (Record::Access { kind_at: 1 }, 24);
    let word = (Record::Word, 8);
    let switch = (Record::Switch, 8);
    [
        Version {
            number: 1,
            bytes: v1::encode(&t),
            records: [
                v1_access, v1_access, v1_switch, v1_access, v1_access, v1_access, v1_switch,
            ],
        },
        Version {
            number: 2,
            bytes: encode(&t).to_vec(),
            // Each CPU's first access escapes to set its ASID (CPU 1's
            // switch set 3, not its access's 2); the 2^48 address escapes.
            records: [escape, word, switch, escape, word, escape, switch],
        },
    ]
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

/// Byte offset of every event's first byte, paired with its record.
fn record_offsets(v: &Version) -> Vec<(usize, Record)> {
    let mut at = PRE_NAME + small_trace().name().len() + COUNT;
    let offsets = v
        .records
        .iter()
        .map(|&(record, len)| {
            let here = at;
            at += len;
            (here, record)
        })
        .collect();
    assert_eq!(at, v.bytes.len(), "v{} record lengths", v.number);
    offsets
}

#[test]
fn both_versions_decode_to_the_trace() {
    let t = small_trace();
    for v in versions() {
        assert_eq!(v.bytes[4], v.number as u8, "version field");
        assert_eq!(agree(&v.bytes, "uncut"), Ok(t.events().to_vec()));
        record_offsets(&v);
    }
}

#[test]
fn every_cut_is_the_same_truncation() {
    for v in versions() {
        let bytes = &v.bytes;
        for cut in 0..bytes.len() {
            assert_eq!(
                agree(&bytes[..cut], &format!("v{} cut at {cut}", v.number)),
                Err(CodecError::Truncated),
                "v{} cut at {cut} of {}",
                v.number,
                bytes.len()
            );
        }
    }
}

#[test]
fn every_tag_byte_value_agrees() {
    for v in versions() {
        for (at, record) in record_offsets(&v) {
            let original = v.bytes[at];
            for value in 0..=u8::MAX {
                let mut corrupt = v.bytes.clone();
                corrupt[at] = value;
                let what = format!("v{} tag {value:#x} at {at}", v.number);
                let got = agree(&corrupt, &what);
                let bad_tag = match v.number {
                    1 => value > 1,
                    _ => value & 3 == 3 && value >> 2 > 1,
                };
                if bad_tag {
                    assert_eq!(got, Err(CodecError::Corrupt("event tag")), "{what}");
                }
                // A one-word access's low two bits are its kind: any other
                // kind decodes.
                if record == Record::Word && value >> 2 == original >> 2 && value & 3 != 3 {
                    assert!(got.is_ok(), "{what}");
                }
            }
        }
    }
}

#[test]
fn every_kind_byte_value_agrees() {
    for v in versions() {
        for (at, record) in record_offsets(&v) {
            let Record::Access { kind_at } = record else {
                continue;
            };
            let kind_at = at + kind_at;
            for value in 0..=u8::MAX {
                let mut corrupt = v.bytes.clone();
                corrupt[kind_at] = value;
                let what = format!("v{} kind {value:#x} at {kind_at}", v.number);
                let got = agree(&corrupt, &what);
                if value > 2 {
                    assert_eq!(got, Err(CodecError::Corrupt("access kind")), "{what}");
                } else {
                    assert!(got.is_ok(), "{what} is a valid kind");
                }
            }
        }
    }
}

#[test]
fn header_faults_agree() {
    for v in versions() {
        let name_at = PRE_NAME;
        let cases: [(usize, u8, CodecError); 4] = [
            (0, b'X', CodecError::BadMagic),
            (4, 0xFF, CodecError::UnsupportedVersion(0x00FF)),
            (8, 0x03, CodecError::Corrupt("page size")),
            (name_at, 0xFF, CodecError::Corrupt("name")),
        ];
        for (at, value, want) in cases {
            let mut corrupt = v.bytes.clone();
            corrupt[at] = value;
            let what = format!("v{} header byte {at}", v.number);
            assert_eq!(agree(&corrupt, &what), Err(want), "{what}");
        }
        // An event count beyond the buffer is refused before any event,
        // and so is one whose smallest records would overrun it.
        let count_at = PRE_NAME + small_trace().name().len();
        let events = v.bytes.len() - count_at - COUNT;
        for count in [u64::MAX, events as u64] {
            let mut corrupt = v.bytes.clone();
            corrupt[count_at..count_at + COUNT].copy_from_slice(&count.to_le_bytes());
            let what = format!("v{} count {count}", v.number);
            assert_eq!(agree(&corrupt, &what), Err(CodecError::Truncated), "{what}");
        }
    }
}
