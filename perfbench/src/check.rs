//! Correctness outputs: digests of every simulated statistic, and the
//! pinned digests they are compared against.

use std::collections::BTreeMap;

use vrcache::events::HierarchyEvents;
use vrcache::hierarchy::CacheHierarchy;
use vrcache_bus::stats::BusStats;
use vrcache_bus::txn::BusOp;
use vrcache_cache::stats::{AccessKind, CacheStats};
use vrcache_cache::write_buffer::WriteBufferStats;
use vrcache_sim::system::OutcomeCounts;
use vrcache_trace::analysis::IntervalHistogram;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a number in.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of `text`.
pub fn text_digest(text: &str) -> String {
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    h.hex()
}

/// Everything a replay simulated, as the digest reads it.
pub struct SimStats<'a> {
    /// The processors' hierarchies, in CPU order.
    pub hierarchies: Vec<&'a dyn CacheHierarchy>,
    /// Bus traffic.
    pub bus: BusStats,
    /// Per-reference outcome tallies.
    pub outcomes: OutcomeCounts,
    /// References replayed.
    pub refs: u64,
    /// Context switches replayed.
    pub switches: u64,
}

impl SimStats<'_> {
    /// Digest of every simulated statistic: per-CPU events, L1/L2 cache
    /// statistics and write-buffer statistics, bus counts and outcome
    /// tallies. The structs are destructured field by field, so a counter
    /// added to any of them fails to compile here until the digest covers
    /// it.
    pub fn digest(&self) -> String {
        let mut h = Fnv::default();
        h.u64(self.refs);
        h.u64(self.switches);
        for hier in &self.hierarchies {
            events(&mut h, hier.events());
            cache(&mut h, &hier.l1_stats());
            cache(&mut h, &hier.l2_stats());
            let WriteBufferStats {
                pushed,
                drained,
                full_stalls,
                cancelled,
                coherence_removed,
                high_water,
            } = hier.write_buffer_stats();
            for x in [pushed, drained, full_stalls, cancelled, coherence_removed] {
                h.u64(x);
            }
            h.u64(u64::from(high_water));
        }
        for op in BusOp::ALL {
            h.u64(self.bus.count(op));
        }
        h.u64(self.bus.cache_supplied);
        h.u64(self.bus.memory_supplied);
        let OutcomeCounts {
            l1_hits,
            l2_hits,
            misses,
            synonym_sameset,
            synonym_move,
            tlb_misses,
        } = self.outcomes;
        for x in [
            l1_hits,
            l2_hits,
            misses,
            synonym_sameset,
            synonym_move,
            tlb_misses,
        ] {
            h.u64(x);
        }
        h.hex()
    }
}

fn cache(h: &mut Fnv, s: &CacheStats) {
    for kind in AccessKind::ALL {
        h.u64(s.class(kind).hits);
        h.u64(s.class(kind).misses);
    }
}

fn histogram(h: &mut Fnv, s: &IntervalHistogram) {
    for interval in 1..=10 {
        h.u64(s.count(interval));
    }
    h.u64(s.events());
}

fn events(h: &mut Fnv, e: &HierarchyEvents) {
    let HierarchyEvents {
        flush_v,
        inval_v,
        flush_buffer,
        inval_buffer,
        update_v,
        update_buffer,
        inclusion_invalidations,
        unfiltered_snoops,
        synonym_sameset,
        synonym_move,
        context_switches,
        lines_swapped,
        swapped_writebacks,
        l1_writebacks,
        l2_writebacks,
        writeback_intervals,
        swapped_writeback_intervals,
        tlb_misses,
        parity_refetches,
        parity_machine_checks,
        secded_corrections,
        eager_flush_writebacks,
        wt_writes_forwarded,
    } = e;
    for x in [
        flush_v,
        inval_v,
        flush_buffer,
        inval_buffer,
        update_v,
        update_buffer,
        inclusion_invalidations,
        unfiltered_snoops,
        synonym_sameset,
        synonym_move,
        context_switches,
        lines_swapped,
        swapped_writebacks,
        l1_writebacks,
        l2_writebacks,
        tlb_misses,
        parity_refetches,
        parity_machine_checks,
        secded_corrections,
        eager_flush_writebacks,
        wt_writes_forwarded,
    ] {
        h.u64(*x);
    }
    histogram(h, writeback_intervals);
    histogram(h, swapped_writeback_intervals);
}

/// Pinned digests, keyed `<workload> <input> <item>`.
#[derive(Debug, Clone, Default)]
pub struct Pins(BTreeMap<String, String>);

/// The committed pins.
pub const PINS: &str = include_str!("../pins.txt");

impl Pins {
    /// Parses `<workload> <input> <item> <digest>` lines; blank lines and
    /// `#` comments are skipped.
    ///
    /// # Errors
    ///
    /// Returns the first line that does not have four fields.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, input, item, digest] = fields[..] else {
                return Err(format!("pins line {}: expected 4 fields", n + 1));
            };
            pins.insert(format!("{workload} {input} {item}"), digest.to_string());
        }
        Ok(Pins(pins))
    }

    /// Compares `digest` with the pin for `key`. A missing pin passes
    /// unless `required`.
    ///
    /// # Errors
    ///
    /// Names the key and both digests on a mismatch, or the key when a
    /// required pin is missing.
    pub fn check(&self, key: &str, digest: &str, required: bool) -> Result<(), String> {
        match self.0.get(key) {
            Some(pinned) if pinned == digest => Ok(()),
            Some(pinned) => Err(format!("{key}: digest {digest} != pinned {pinned}")),
            None if required => Err(format!("{key}: no pinned digest")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_pins_parse() {
        assert!(!Pins::parse(PINS).expect("pins parse").0.is_empty());
    }

    #[test]
    fn pins_compare() {
        let pins = Pins::parse("# c\nw s=1 vr 00ff\n").unwrap();
        assert!(pins.check("w s=1 vr", "00ff", true).is_ok());
        assert!(pins.check("w s=1 vr", "00fe", false).is_err());
        assert!(pins.check("w s=2 vr", "00fe", false).is_ok());
        assert!(pins.check("w s=2 vr", "00fe", true).is_err());
        assert!(Pins::parse("w s=1 vr").is_err());
    }

    #[test]
    fn fnv_matches_reference() {
        assert_eq!(text_digest(""), "cbf29ce484222325");
        assert_eq!(text_digest("a"), "af63dc4c8601ec8c");
    }
}
