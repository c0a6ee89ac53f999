//! A compact binary trace format.
//!
//! Generated traces can be serialized once and replayed many times (or
//! shipped between machines) without regenerating. The format is a small
//! little-endian framing. [`encode`] writes version 2; [`decode`] and
//! [`Decoder`] read versions 1 and 2.
//!
//! ```text
//! magic "VRTR" | version u16 | cpus u16 | page_bytes u64
//! name_len u16 | name bytes | event_count u64 | events...
//!
//! version 2: every event starts with one u64 word
//!   access  := word  kind:2 (0..=2) | cpu:6 | vaddr:32 | frame:24
//!              paddr = frame << page_bits | (vaddr & page_mask)
//!              asid  = the CPU's current ASID
//!   escape  := word  3:2 | 0:6 | kind:8 | cpu:16 | asid:16 | 0:16
//!              vaddr:u64 paddr:u64          (sets the CPU's ASID)
//!   switch  := word  3:2 | 1:6 | 0:8 | cpu:16 | from:16 | to:16
//!                                           (sets the CPU's ASID to `to`)
//!
//! version 1:
//!   event := 0x00 cpu:u16 asid:u16 kind:u8 vaddr:u64 paddr:u64
//!          | 0x01 cpu:u16 from:u16 to:u16
//! ```
//!
//! Fields of a version-2 word are listed from bit 0 up. Each of the
//! first 64 CPUs has a current ASID, 0 at the start of the trace. An
//! access is written as one word when its CPU is below 64, its ASID is
//! the CPU's current one, its virtual address is below 2^32, its frame
//! number is below 2^24, and its physical page offset equals its
//! virtual one. Every other access is an escape.

use core::fmt;

use bytes::{BufMut, Bytes, BytesMut};
use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_mem::page::PageSize;

use crate::record::{MemAccess, TraceEvent};
use crate::trace::Trace;

const MAGIC: &[u8; 4] = b"VRTR";
/// The version [`encode`] writes.
const VERSION: u16 = 2;
/// The previous version, still read.
const VERSION_1: u16 = 1;
const TAG_ACCESS: u8 = 0x00;
const TAG_SWITCH: u8 = 0x01;

/// The two low bits of a version-2 word: an access kind, or this escape.
const ESCAPE: u64 = 3;
/// Escape subtypes, in bits 2..8 of an escape word.
const ESC_ACCESS: u64 = 0;
const ESC_SWITCH: u64 = 1;
/// CPUs with a current-ASID slot; higher CPUs always escape.
const FAST_CPUS: usize = 64;
const FAST_VADDR_BITS: u32 = 32;
const FAST_FRAME_BITS: u32 = 24;

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
    /// An event tag, access kind, reserved bit or page size was invalid.
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

/// Serializes a trace to its binary form (version 2).
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
    let name = trace.name().as_bytes();
    let mut buf = BytesMut::with_capacity(4 + HEADER_BYTES + name.len() + 8 + trace.len() * 8);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(trace.cpus());
    buf.put_u64_le(trace.page_size().bytes());
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name);
    buf.put_u64_le(trace.len() as u64);
    let page_bits = trace.page_size().bits();
    let mut asids = [0u16; FAST_CPUS];
    for e in trace.iter() {
        match *e {
            TraceEvent::Access(a) => {
                let cpu = usize::from(a.cpu.raw());
                let (va, pa) = (a.vaddr.raw(), a.paddr.raw());
                let kind = u64::from(kind_to_u8(a.kind));
                let frame = pa >> page_bits;
                let fast = cpu < FAST_CPUS
                    && asids[cpu] == a.asid.raw()
                    && va >> FAST_VADDR_BITS == 0
                    && frame >> FAST_FRAME_BITS == 0
                    && (pa ^ va) & page_mask(page_bits) == 0;
                if fast {
                    buf.put_u64_le(kind | (cpu as u64) << 2 | va << 8 | frame << 40);
                } else {
                    buf.put_u64_le(
                        ESCAPE
                            | ESC_ACCESS << 2
                            | kind << 8
                            | u64::from(a.cpu.raw()) << 16
                            | u64::from(a.asid.raw()) << 32,
                    );
                    buf.put_u64_le(va);
                    buf.put_u64_le(pa);
                    if let Some(slot) = asids.get_mut(cpu) {
                        *slot = a.asid.raw();
                    }
                }
            }
            TraceEvent::ContextSwitch { cpu, from, to } => {
                buf.put_u64_le(
                    ESCAPE
                        | ESC_SWITCH << 2
                        | u64::from(cpu.raw()) << 16
                        | u64::from(from.raw()) << 32
                        | u64::from(to.raw()) << 48,
                );
                if let Some(slot) = asids.get_mut(cpu.index()) {
                    *slot = to.raw();
                }
            }
        }
    }
    buf.freeze()
}

/// The page-offset mask of a page of `2^page_bits` bytes.
#[inline]
fn page_mask(page_bits: u32) -> u64 {
    (1u64 << page_bits) - 1
}

/// Parses a binary trace produced by [`encode`], or a version-1 trace.
///
/// # Errors
///
/// Returns a [`CodecError`] on bad magic, an unsupported version, a
/// truncated buffer, or invalid field values — the same error the
/// streaming [`Decoder`] reports for the same bytes.
pub fn decode(buf: &[u8]) -> Result<Trace, CodecError> {
    // `Decoder::new` has checked the count against the buffer length, so
    // a corrupt count cannot request more than a few times the buffer.
    let Decoder {
        mut buf,
        name,
        cpus,
        page,
        format,
        remaining,
        ..
    } = Decoder::new(buf)?;
    let events = match format {
        Format::V1 => decode_all(remaining, move || next_v1(&mut buf))?,
        Format::V2 {
            page_bits,
            mut asids,
        } => decode_all(remaining, move || next_v2(&mut buf, page_bits, &mut asids))?,
    };
    Ok(Trace::new(name, cpus, page, events))
}

/// Collects `count` events from `step`, or its first error.
///
/// The events are written straight into a vector sized once: the
/// infallible, exact-length `collect` below needs no capacity check per
/// event. (A loop of `push(step()?)` builds each event on the stack and
/// copies it, which costs more than decoding it.) An error stands in a
/// placeholder event and is kept aside; the events after it are decoded
/// from whatever follows and dropped with the vector.
#[inline]
fn decode_all(
    count: u64,
    mut step: impl FnMut() -> Result<TraceEvent, CodecError>,
) -> Result<Vec<TraceEvent>, CodecError> {
    const PLACEHOLDER: TraceEvent = TraceEvent::ContextSwitch {
        cpu: CpuId::new(0),
        from: Asid::new(0),
        to: Asid::new(0),
    };
    let mut failure = None;
    let events = (0..count)
        .map(|_| {
            step().unwrap_or_else(|e| {
                failure.get_or_insert(e);
                PLACEHOLDER
            })
        })
        .collect();
    match failure {
        None => Ok(events),
        Some(e) => Err(e),
    }
}

/// Splits the next `N` bytes off the front of `buf`.
#[inline]
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Splits the next little-endian `u64` off the front of `buf`.
#[inline]
fn take_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let (head, rest) = buf.split_first_chunk::<8>().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(u64::from_le_bytes(*head))
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
/// A version-1 access record after its tag: cpu, asid, kind, vaddr, paddr.
const ACCESS_BYTES: usize = 2 + 2 + 1 + 8 + 8;
/// A version-1 context-switch record after its tag: cpu, from, to.
const SWITCH_BYTES: usize = 2 + 2 + 2;

/// The 16-bit field at bit `at` of a version-2 escape word.
#[inline]
fn u16_field(word: u64, at: u32) -> u16 {
    (word >> at) as u16
}

/// Decodes one version-1 event: a tag byte, then one fixed-width record
/// split off with a single length check.
fn next_v1(buf: &mut &[u8]) -> Result<TraceEvent, CodecError> {
    let [tag] = take::<1>(buf)?;
    match tag {
        TAG_ACCESS => {
            let rec = take::<ACCESS_BYTES>(buf)?;
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
            let rec = take::<SWITCH_BYTES>(buf)?;
            Ok(TraceEvent::ContextSwitch {
                cpu: CpuId::new(u16_at(&rec, 0)),
                from: Asid::new(u16_at(&rec, 2)),
                to: Asid::new(u16_at(&rec, 4)),
            })
        }
        _ => Err(CodecError::Corrupt("event tag")),
    }
}

/// Decodes one version-2 event from a trace of `2^page_bits`-byte pages.
/// `asids` is the current ASID of each of the first [`FAST_CPUS`] CPUs;
/// escapes update it.
#[inline]
fn next_v2(
    buf: &mut &[u8],
    page_bits: u32,
    asids: &mut [u16; FAST_CPUS],
) -> Result<TraceEvent, CodecError> {
    let word = take_u64(buf)?;
    let Some(kind) = kind_from_u8(word as u8 & 3) else {
        return next_v2_escape(buf, word, asids);
    };
    let cpu = (word >> 2) as usize & (FAST_CPUS - 1);
    let va = (word >> 8) & 0xffff_ffff;
    let frame = word >> 40;
    Ok(TraceEvent::Access(MemAccess {
        cpu: CpuId::new(cpu as u16),
        asid: Asid::new(asids[cpu]),
        kind,
        vaddr: VirtAddr::new(va),
        paddr: PhysAddr::new(frame << page_bits | va & page_mask(page_bits)),
    }))
}

/// Decodes the rest of a version-2 escape whose header word is `word`.
#[inline]
fn next_v2_escape(
    buf: &mut &[u8],
    word: u64,
    asids: &mut [u16; FAST_CPUS],
) -> Result<TraceEvent, CodecError> {
    let cpu = u16_field(word, 16);
    match (word >> 2) & 0x3f {
        ESC_ACCESS => {
            if word >> 48 != 0 {
                return Err(CodecError::Corrupt("reserved bits"));
            }
            let kind = kind_from_u8((word >> 8) as u8).ok_or(CodecError::Corrupt("access kind"))?;
            let asid = u16_field(word, 32);
            let rec = take::<16>(buf)?;
            if let Some(slot) = asids.get_mut(usize::from(cpu)) {
                *slot = asid;
            }
            Ok(TraceEvent::Access(MemAccess {
                cpu: CpuId::new(cpu),
                asid: Asid::new(asid),
                kind,
                vaddr: VirtAddr::new(u64_at(&rec, 0)),
                paddr: PhysAddr::new(u64_at(&rec, 8)),
            }))
        }
        ESC_SWITCH => {
            if (word >> 8) & 0xff != 0 {
                return Err(CodecError::Corrupt("reserved bits"));
            }
            let to = u16_field(word, 48);
            if let Some(slot) = asids.get_mut(usize::from(cpu)) {
                *slot = to;
            }
            Ok(TraceEvent::ContextSwitch {
                cpu: CpuId::new(cpu),
                from: Asid::new(u16_field(word, 32)),
                to: Asid::new(to),
            })
        }
        _ => Err(CodecError::Corrupt("event tag")),
    }
}

/// How the events of a buffer are laid out.
#[derive(Debug, Clone)]
enum Format {
    V1,
    V2 {
        page_bits: u32,
        asids: [u16; FAST_CPUS],
    },
}

impl Format {
    /// The fewest bytes one event of this format takes.
    fn min_event_bytes(&self) -> u64 {
        match self {
            Format::V1 => 1 + SWITCH_BYTES as u64,
            Format::V2 { .. } => 8,
        }
    }
}

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
    format: Format,
    remaining: u64,
    failed: bool,
}

impl<'a> Decoder<'a> {
    /// Parses the header and positions the iterator at the first event.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for a bad header, and
    /// [`CodecError::Truncated`] when the buffer is too short to hold the
    /// declared number of events.
    pub fn new(mut buf: &'a [u8]) -> Result<Self, CodecError> {
        if take::<4>(&mut buf)? != *MAGIC {
            return Err(CodecError::BadMagic);
        }
        let header = take::<HEADER_BYTES>(&mut buf)?;
        let version = u16_at(&header, 0);
        if version != VERSION && version != VERSION_1 {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let cpus = u16_at(&header, 2);
        let page =
            PageSize::new(u64_at(&header, 4)).map_err(|_| CodecError::Corrupt("page size"))?;
        let format = if version == VERSION {
            Format::V2 {
                page_bits: page.bits(),
                asids: [0; FAST_CPUS],
            }
        } else {
            Format::V1
        };
        let name_len = usize::from(u16_at(&header, 12));
        let (name_bytes, rest) = buf
            .split_at_checked(name_len)
            .ok_or(CodecError::Truncated)?;
        let name =
            String::from_utf8(name_bytes.to_vec()).map_err(|_| CodecError::Corrupt("name"))?;
        buf = rest;
        let remaining = take_u64(&mut buf)?;
        // A count whose smallest possible encoding overruns the buffer is
        // certainly truncated, and must not be trusted for
        // pre-allocation: a corrupt count would otherwise request many
        // times the buffer's size.
        let least = remaining.checked_mul(format.min_event_bytes());
        if least.is_none_or(|bytes| bytes > buf.len() as u64) {
            return Err(CodecError::Truncated);
        }
        Ok(Decoder {
            buf,
            name,
            cpus,
            page,
            format,
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

    /// Decodes the next event in the buffer's format. The batch
    /// [`decode`] and the iterator both go through here.
    #[inline]
    fn step(&mut self) -> Result<TraceEvent, CodecError> {
        match &mut self.format {
            Format::V1 => next_v1(&mut self.buf),
            Format::V2 { page_bits, asids } => next_v2(&mut self.buf, *page_bits, asids),
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
        let r = self.step();
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

    fn access(cpu: u16, asid: u16, va: u64, pa: u64) -> TraceEvent {
        TraceEvent::Access(MemAccess {
            cpu: CpuId::new(cpu),
            asid: Asid::new(asid),
            kind: AccessKind::DataRead,
            vaddr: VirtAddr::new(va),
            paddr: PhysAddr::new(pa),
        })
    }

    /// Bytes before the first event of an encoding of a trace named `name`.
    fn header_len(name: &str) -> usize {
        4 + HEADER_BYTES + name.len() + 8
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
    fn each_record_takes_its_documented_size() {
        let cases: [(TraceEvent, usize); 8] = [
            (access(0, 0, 0x1234, 0x7_f234), 8),
            (access(63, 0, 0xffff_fff0, 0xf_ffff_fff0), 8),
            (access(0, 7, 0x1234, 0x7_f234), 24),
            (access(64, 0, 0x1234, 0x7_f234), 24),
            (access(0, 0, 1 << 32, 0x7_0000), 24),
            (access(0, 0, 0x1234, 1 << 36), 24),
            (access(0, 0, 0x1234, 0x7_f235), 24),
            (
                TraceEvent::ContextSwitch {
                    cpu: CpuId::new(500),
                    from: Asid::new(1),
                    to: Asid::new(2),
                },
                8,
            ),
        ];
        for (event, size) in cases {
            let t = Trace::new("", 1, PageSize::SIZE_4K, vec![event]);
            let bytes = encode(&t);
            assert_eq!(bytes.len() - header_len(""), size, "{event:?}");
            assert_eq!(decode(&bytes).unwrap().events(), [event]);
        }
    }

    #[test]
    fn escapes_and_switches_set_the_cpus_asid() {
        let switch = TraceEvent::ContextSwitch {
            cpu: CpuId::new(1),
            from: Asid::new(0),
            to: Asid::new(9),
        };
        let events = vec![
            access(0, 5, 0x1000, 0x2000),
            access(0, 5, 0x1004, 0x2004),
            switch,
            access(1, 9, 0x1008, 0x3008),
            access(0, 5, 0x100c, 0x200c),
        ];
        let t = Trace::new("", 2, PageSize::SIZE_4K, events);
        let bytes = encode(&t);
        assert_eq!(bytes.len() - header_len(""), 24 + 8 + 8 + 8 + 8);
        assert_eq!(decode(&bytes).unwrap().events(), t.events());
    }

    #[test]
    fn corrupt_kind_rejected() {
        let t = Trace::new("", 1, PageSize::SIZE_4K, vec![access(0, 7, 0x10, 0x20)]);
        let mut bytes = encode(&t).to_vec();
        // The escape word's second byte is the access kind.
        bytes[header_len("") + 1] = 99;
        assert_eq!(decode(&bytes), Err(CodecError::Corrupt("access kind")));
    }

    #[test]
    fn reserved_escape_bits_rejected() {
        let switch = TraceEvent::ContextSwitch {
            cpu: CpuId::new(0),
            from: Asid::new(1),
            to: Asid::new(2),
        };
        for (event, byte) in [(access(0, 7, 0x10, 0x20), 7), (switch, 1)] {
            let t = Trace::new("", 1, PageSize::SIZE_4K, vec![event]);
            let mut bytes = encode(&t).to_vec();
            bytes[header_len("") + byte] = 1;
            assert_eq!(decode(&bytes), Err(CodecError::Corrupt("reserved bits")));
        }
    }

    #[test]
    fn counts_beyond_the_buffer_are_truncations() {
        // A header declaring `count` events followed by `body` zero bytes.
        fn with_count(version: u16, count: u64, body: usize) -> Vec<u8> {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&version.to_le_bytes());
            b.extend_from_slice(&1u16.to_le_bytes());
            b.extend_from_slice(&4096u64.to_le_bytes());
            b.extend_from_slice(&0u16.to_le_bytes());
            b.extend_from_slice(&count.to_le_bytes());
            b.resize(b.len() + body, 0);
            b
        }
        // At most one 7-byte v1 event or 8-byte v2 event per 7 or 8 bytes.
        for (version, least) in [(VERSION_1, 7), (VERSION, 8)] {
            for count in [65, 100, 1 << 40, u64::MAX / least, u64::MAX] {
                let bytes = with_count(version, count, 64 * least as usize);
                assert_eq!(
                    decode(&bytes),
                    Err(CodecError::Truncated),
                    "v{version} {count}"
                );
                assert!(Decoder::new(&bytes).is_err(), "v{version} {count}");
            }
            let bytes = with_count(version, 64, 64 * least as usize);
            assert_eq!(Decoder::new(&bytes).unwrap().remaining(), 64);
        }
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
        let t = Trace::new(
            "",
            1,
            PageSize::SIZE_4K,
            vec![access(0, 0, 0x10, 0x10), access(0, 7, 0x10, 0x10)],
        );
        let mut bytes = encode(&t).to_vec();
        // Cut into the escape's payload: the count check in `new` passes.
        bytes.truncate(bytes.len() - 5);
        let results: Vec<_> = Decoder::new(&bytes).unwrap().collect();
        assert_eq!(results, [Ok(t.events()[0]), Err(CodecError::Truncated)]);
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::BadMagic.to_string(), "missing VRTR magic");
        assert!(CodecError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(CodecError::Corrupt("x").to_string().contains('x'));
        assert!(CodecError::Truncated.to_string().contains("early"));
    }
}
