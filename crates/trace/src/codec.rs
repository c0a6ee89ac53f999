//! A compact binary trace format.
//!
//! Generated traces can be serialized once and replayed many times (or
//! shipped between machines) without regenerating. The format is a small
//! little-endian framing:
//!
//! ```text
//! magic "VRTR" | version u16 | cpus u16 | page_bytes u64
//! name_len u16 | name bytes | event_count u64 | events...
//! event := 0x00 cpu:u16 asid:u16 kind:u8 vaddr:u64 paddr:u64
//!        | 0x01 cpu:u16 from:u16 to:u16
//! ```

use core::fmt;

use bytes::{BufMut, Bytes, BytesMut};
use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_mem::page::PageSize;

use crate::record::{MemAccess, TraceEvent};
use crate::trace::Trace;

const MAGIC: &[u8; 4] = b"VRTR";
const VERSION: u16 = 1;
const TAG_ACCESS: u8 = 0x00;
const TAG_SWITCH: u8 = 0x01;

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer does not start with the `VRTR` magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared content did.
    Truncated,
    /// An event tag, access kind, or page size was invalid.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "missing VRTR magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated => write!(f, "trace buffer ended early"),
            CodecError::Corrupt(what) => write!(f, "corrupt trace field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn kind_to_u8(k: AccessKind) -> u8 {
    match k {
        AccessKind::InstrFetch => 0,
        AccessKind::DataRead => 1,
        AccessKind::DataWrite => 2,
    }
}

fn kind_from_u8(v: u8) -> Option<AccessKind> {
    match v {
        0 => Some(AccessKind::InstrFetch),
        1 => Some(AccessKind::DataRead),
        2 => Some(AccessKind::DataWrite),
        _ => None,
    }
}

/// Serializes a trace to its binary form.
///
/// # Example
///
/// ```
/// use vrcache_trace::codec::{decode, encode};
/// use vrcache_trace::presets::TracePreset;
///
/// # fn main() -> Result<(), vrcache_trace::codec::CodecError> {
/// let t = TracePreset::Thor.generate_scaled(0.002);
/// let bytes = encode(&t);
/// let back = decode(&bytes)?;
/// assert_eq!(back.events(), t.events());
/// # Ok(())
/// # }
/// ```
pub fn encode(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + trace.len() * 26);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(trace.cpus());
    buf.put_u64_le(trace.page_size().bytes());
    let name = trace.name().as_bytes();
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name);
    buf.put_u64_le(trace.len() as u64);
    for e in trace.iter() {
        match e {
            TraceEvent::Access(a) => {
                buf.put_u8(TAG_ACCESS);
                buf.put_u16_le(a.cpu.raw());
                buf.put_u16_le(a.asid.raw());
                buf.put_u8(kind_to_u8(a.kind));
                buf.put_u64_le(a.vaddr.raw());
                buf.put_u64_le(a.paddr.raw());
            }
            TraceEvent::ContextSwitch { cpu, from, to } => {
                buf.put_u8(TAG_SWITCH);
                buf.put_u16_le(cpu.raw());
                buf.put_u16_le(from.raw());
                buf.put_u16_le(to.raw());
            }
        }
    }
    buf.freeze()
}

/// Parses a binary trace produced by [`encode`].
///
/// # Errors
///
/// Returns a [`CodecError`] on bad magic, an unsupported version, a
/// truncated buffer, or invalid field values — the same error the
/// streaming [`Decoder`] reports for the same bytes.
pub fn decode(buf: &[u8]) -> Result<Trace, CodecError> {
    let mut decoder = Decoder::new(buf)?;
    // `Decoder::new` has checked the count against the buffer length, so
    // a corrupt count cannot request a huge allocation here.
    let mut events = Vec::with_capacity(decoder.remaining() as usize);
    for event in &mut decoder {
        events.push(event?);
    }
    let Decoder {
        name, cpus, page, ..
    } = decoder;
    Ok(Trace::new(name, cpus, page, events))
}

/// Splits the next `N` bytes off the front of `buf`.
#[inline]
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// The little-endian `u16` at byte `at` of a fixed-width record.
#[inline]
fn u16_at<const N: usize>(rec: &[u8; N], at: usize) -> u16 {
    u16::from_le_bytes([rec[at], rec[at + 1]])
}

/// The little-endian `u64` at byte `at` of a fixed-width record.
#[inline]
fn u64_at<const N: usize>(rec: &[u8; N], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&rec[at..at + 8]);
    u64::from_le_bytes(word)
}

/// Fixed header after the magic: version, cpus, page bytes, name length.
const HEADER_BYTES: usize = 2 + 2 + 8 + 2;
/// An access record after its tag: cpu, asid, kind, vaddr, paddr.
const ACCESS_BYTES: usize = 2 + 2 + 1 + 8 + 8;
/// A context-switch record after its tag: cpu, from, to.
const SWITCH_BYTES: usize = 2 + 2 + 2;

/// A streaming decoder: iterates events without materializing the whole
/// trace, for replaying large stored traces with bounded memory.
///
/// # Example
///
/// ```
/// use vrcache_trace::codec::{encode, Decoder};
/// use vrcache_trace::presets::TracePreset;
///
/// # fn main() -> Result<(), vrcache_trace::codec::CodecError> {
/// let t = TracePreset::Thor.generate_scaled(0.002);
/// let bytes = encode(&t);
/// let mut decoder = Decoder::new(&bytes)?;
/// assert_eq!(decoder.cpus(), t.cpus());
/// let events: Result<Vec<_>, _> = decoder.by_ref().collect();
/// assert_eq!(events?, t.events());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    name: String,
    cpus: u16,
    page: PageSize,
    remaining: u64,
    failed: bool,
}

impl<'a> Decoder<'a> {
    /// Parses the header and positions the iterator at the first event.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for a bad header.
    pub fn new(mut buf: &'a [u8]) -> Result<Self, CodecError> {
        if take::<4>(&mut buf)? != *MAGIC {
            return Err(CodecError::BadMagic);
        }
        let header = take::<HEADER_BYTES>(&mut buf)?;
        let version = u16_at(&header, 0);
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let cpus = u16_at(&header, 2);
        let page =
            PageSize::new(u64_at(&header, 4)).map_err(|_| CodecError::Corrupt("page size"))?;
        let name_len = usize::from(u16_at(&header, 12));
        let (name_bytes, rest) = buf
            .split_at_checked(name_len)
            .ok_or(CodecError::Truncated)?;
        let name =
            String::from_utf8(name_bytes.to_vec()).map_err(|_| CodecError::Corrupt("name"))?;
        buf = rest;
        let remaining = u64::from_le_bytes(take::<8>(&mut buf)?);
        // Every event occupies at least 7 bytes, so a count larger than
        // the remaining buffer is certainly truncated (and must not be
        // trusted for pre-allocation — a corrupt count would otherwise
        // request terabytes).
        if remaining > buf.len() as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(Decoder {
            buf,
            name,
            cpus,
            page,
            remaining,
            failed: false,
        })
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> u16 {
        self.cpus
    }

    /// The page size the trace was generated under.
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// Events not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes one event: a tag byte, then one fixed-width record split
    /// off with a single length check.
    fn next_event(&mut self) -> Result<TraceEvent, CodecError> {
        let [tag] = take::<1>(&mut self.buf)?;
        match tag {
            TAG_ACCESS => {
                let rec = take::<ACCESS_BYTES>(&mut self.buf)?;
                let kind = kind_from_u8(rec[4]).ok_or(CodecError::Corrupt("access kind"))?;
                Ok(TraceEvent::Access(MemAccess {
                    cpu: CpuId::new(u16_at(&rec, 0)),
                    asid: Asid::new(u16_at(&rec, 2)),
                    kind,
                    vaddr: VirtAddr::new(u64_at(&rec, 5)),
                    paddr: PhysAddr::new(u64_at(&rec, 13)),
                }))
            }
            TAG_SWITCH => {
                let rec = take::<SWITCH_BYTES>(&mut self.buf)?;
                Ok(TraceEvent::ContextSwitch {
                    cpu: CpuId::new(u16_at(&rec, 0)),
                    from: Asid::new(u16_at(&rec, 2)),
                    to: Asid::new(u16_at(&rec, 4)),
                })
            }
            _ => Err(CodecError::Corrupt("event tag")),
        }
    }
}

impl Iterator for Decoder<'_> {
    type Item = Result<TraceEvent, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let r = self.next_event();
        if r.is_err() {
            self.failed = true;
        }
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            (0, Some(0))
        } else {
            (0, Some(self.remaining as usize))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, WorkloadConfig};

    fn small_trace() -> Trace {
        generate(&WorkloadConfig {
            total_refs: 2_000,
            cpus: 2,
            context_switches: 3,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = small_trace();
        let encoded = encode(&t);
        let back = decode(&encoded).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.cpus(), t.cpus());
        assert_eq!(back.page_size(), t.page_size());
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&small_trace()).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&small_trace()).to_vec();
        bytes[4] = 0xFF;
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&small_trace());
        for cut in [3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_kind_rejected() {
        let t = small_trace();
        let mut bytes = encode(&t).to_vec();
        // Find the first access event's kind byte: header is
        // 4 + 2 + 2 + 8 + 2 + name + 8; then tag(1) cpu(2) asid(2) kind(1).
        let name_len = t.name().len();
        let kind_pos = 4 + 2 + 2 + 8 + 2 + name_len + 8 + 1 + 2 + 2;
        bytes[kind_pos] = 99;
        assert!(matches!(decode(&bytes), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("empty", 1, PageSize::SIZE_4K, vec![]);
        let back = decode(&encode(&t)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.name(), "empty");
    }

    #[test]
    fn streaming_decoder_matches_batch_decode() {
        let t = small_trace();
        let bytes = encode(&t);
        let mut d = Decoder::new(&bytes).unwrap();
        assert_eq!(d.name(), t.name());
        assert_eq!(d.cpus(), t.cpus());
        assert_eq!(d.page_size(), t.page_size());
        assert_eq!(d.remaining() as usize, t.len());
        let events: Vec<_> = d.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(events, t.events());
        assert_eq!(d.remaining(), 0);
        assert!(d.next().is_none());
    }

    #[test]
    fn streaming_decoder_stops_at_first_error() {
        let t = small_trace();
        let mut bytes = encode(&t).to_vec();
        let cut = bytes.len() - 5;
        bytes.truncate(cut);
        // Header parse may still succeed (count > remaining is caught).
        match Decoder::new(&bytes) {
            Err(CodecError::Truncated) => {}
            Ok(d) => {
                let results: Vec<_> = d.collect();
                assert!(results.last().unwrap().is_err(), "must surface the cut");
                // After the first error the iterator fuses.
                assert!(results.iter().filter(|r| r.is_err()).count() == 1);
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::BadMagic.to_string(), "missing VRTR magic");
        assert!(CodecError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(CodecError::Corrupt("x").to_string().contains('x'));
        assert!(CodecError::Truncated.to_string().contains("early"));
    }
}
