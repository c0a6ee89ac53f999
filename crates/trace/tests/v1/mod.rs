//! A writer for version 1 of the binary trace format, kept with the tests
//! because the library now writes only version 2 but still reads both.
//!
//! ```text
//! magic "VRTR" | version u16 = 1 | cpus u16 | page_bytes u64
//! name_len u16 | name bytes | event_count u64 | events...
//! event := 0x00 cpu:u16 asid:u16 kind:u8 vaddr:u64 paddr:u64
//!        | 0x01 cpu:u16 from:u16 to:u16
//! ```
//!
//! Its bytes are also the canonical, format-independent serialization of
//! a trace that `synth_golden.rs` hashes.

use vrcache_mem::access::AccessKind;
use vrcache_trace::record::TraceEvent;
use vrcache_trace::trace::Trace;

/// Serializes `trace` in version 1.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let name = trace.name().as_bytes();
    let mut buf = Vec::with_capacity(26 + name.len() + trace.len() * 22);
    buf.extend_from_slice(b"VRTR");
    buf.extend_from_slice(&1u16.to_le_bytes());
    buf.extend_from_slice(&trace.cpus().to_le_bytes());
    buf.extend_from_slice(&trace.page_size().bytes().to_le_bytes());
    let name_len = u16::try_from(name.len()).expect("trace name fits a u16 length");
    buf.extend_from_slice(&name_len.to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for e in trace.iter() {
        match e {
            TraceEvent::Access(a) => {
                let kind: u8 = match a.kind {
                    AccessKind::InstrFetch => 0,
                    AccessKind::DataRead => 1,
                    AccessKind::DataWrite => 2,
                };
                buf.push(0x00);
                buf.extend_from_slice(&a.cpu.raw().to_le_bytes());
                buf.extend_from_slice(&a.asid.raw().to_le_bytes());
                buf.push(kind);
                buf.extend_from_slice(&a.vaddr.raw().to_le_bytes());
                buf.extend_from_slice(&a.paddr.raw().to_le_bytes());
            }
            TraceEvent::ContextSwitch { cpu, from, to } => {
                buf.push(0x01);
                buf.extend_from_slice(&cpu.raw().to_le_bytes());
                buf.extend_from_slice(&from.raw().to_le_bytes());
                buf.extend_from_slice(&to.raw().to_le_bytes());
            }
        }
    }
    buf
}
