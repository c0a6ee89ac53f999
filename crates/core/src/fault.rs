//! The fault model: deterministic single-fault corruption of live
//! hierarchy state.
//!
//! The paper's correctness story hangs on small pieces of linking
//! metadata — the V-cache *r-pointers*, the R-cache subentry
//! *inclusion*/*buffer*/*vdirty* bits and *v-pointers* — whose silent
//! corruption breaks synonym resolution and the R-cache's shielding of
//! the first level. This module enumerates the ways that state can rot
//! ([`FaultKind`]) and defines the [`FaultPort`] trait through which the
//! `vrcache-inject` campaign runner corrupts a live hierarchy at a
//! deterministic `(seed, access-index)` point.
//!
//! Detection is modeled parity ([`HierarchyConfig::parity`]): every
//! tag/state array and the TLB carry parity, so a hardware fault leaves
//! a *syndrome* identifying which structure faulted. The model keeps
//! that syndrome as a poison record attached to the corrupted entry's
//! lookup key; each hierarchy *scrubs* its poison at the entry of every
//! public operation (access, context switch, TLB shootdown, snoop) —
//! before any lookup can consume corrupted state, exactly as a parity
//! check fires on the array read itself. Recovery is typed:
//!
//! * **clean parity miss** — the corrupted state duplicated something
//!   recoverable; discard it and let the normal miss path refetch
//!   ([`HierarchyEvents::parity_refetches`]);
//! * **dirty or pointer-metadata parity miss** — modified data or
//!   linkage may be lost; conservatively invalidate the affected lines
//!   and their children and raise a machine check
//!   ([`HierarchyEvents::parity_machine_checks`]). The hierarchy stays
//!   structurally sound but the run is declared failed — loudly, never
//!   silently.
//!
//! Everything the organizations do identically under fault injection is
//! written once here: the `PoisonLog` with its two gates, the
//! scrub-at-entry dispatch and refetch-versus-machine-check
//! classification (the `Scrub` trait), the SECDED data-scrub decision
//! (`data_scrub`), seed-indexed target picking (`pick`), the
//! first-level tag, dirty and data-bit corruptions (generic over
//! [`CacheArray`]), and TLB-entry and write-buffer-drop injection. The
//! R-cache injectors and the inclusion-repair sweep live on
//! [`RCache`]. Each organization keeps only its structural linkage
//! repair (`Scrub::discard_l1_line` and `discard_l2_line`) and its
//! explicit [`FaultPort::inject_fault`] match.
//!
//! Bus-level kinds ([`FaultKind::is_bus_level`]) are not injected
//! through the port — they corrupt transactions in flight, so the
//! campaign harness arms them at its faulty-bus wrapper, recovering via
//! bounded retry with NACK accounting
//! ([`vrcache_bus::retry`](vrcache_bus::retry)).
//!
//! [`HierarchyConfig::parity`]: crate::config::HierarchyConfig::parity
//! [`HierarchyEvents::parity_refetches`]: crate::events::HierarchyEvents::parity_refetches
//! [`HierarchyEvents::parity_machine_checks`]: crate::events::HierarchyEvents::parity_machine_checks

use core::fmt;

use vrcache_bus::oracle::Version;
use vrcache_cache::array::{CacheArray, Line};
use vrcache_cache::geometry::BlockId;
use vrcache_cache::syndrome::{Codeword, Decode};
use vrcache_cache::write_buffer::WriteBuffer;
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_mem::tlb::Tlb;

use crate::config::{DataProtection, HierarchyConfig};
use crate::events::HierarchyEvents;
use crate::rcache::{ChildCache, CohState, RCache};

/// One kind of single-point corruption of live hierarchy state.
///
/// The structural kinds target a specific structure and are injected
/// through [`FaultPort::inject_fault`]; the `Bus*` kinds corrupt bus
/// transactions in flight and are armed at the campaign harness's bus
/// wrapper. The data-bit kinds ([`is_data_level`](Self::is_data_level))
/// corrupt the *data* arrays — what the hierarchy does about those is
/// governed by [`DataProtection`], not by
/// the metadata parity knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Flip a tag bit of a V-cache (or physical L1) line: the line now
    /// answers for the wrong address.
    VTagFlip,
    /// Flip a V-cache line's dirty bit.
    VStateFlip,
    /// Corrupt a V-cache line's *r-pointer* (the physical block id
    /// linking it to its R-cache parent).
    RPointerFlip,
    /// Flip an R-cache subentry's *inclusion* bit.
    RInclusionFlip,
    /// Flip an R-cache subentry's *buffer* bit.
    RBufferFlip,
    /// Flip an R-cache subentry's *vdirty* bit.
    RVdirtyFlip,
    /// Corrupt an R-cache subentry's *v-pointer* (the virtual block id
    /// locating its V-cache child).
    VPointerFlip,
    /// Flip a cached block's coherence state (shared ↔ private).
    CohStateFlip,
    /// Corrupt a TLB entry's translation.
    TlbEntryFlip,
    /// Drop one pending entry from the write-back buffer.
    WriteBufferDrop,
    /// Flip one data bit of a V-cache (or physical L1) line: the stored
    /// word no longer matches what was written.
    VDataBit,
    /// Flip one data bit of an R-cache / L2 line's stored word.
    RDataBit,
    /// Drop a bus transaction: the issuer sees a fabricated empty
    /// response and no other agent observes the request.
    BusDropTxn,
    /// Issue a bus transaction twice.
    BusDuplicateTxn,
    /// Deliver an invalidation to the bus but not to the snoopers.
    BusLostInvalidate,
}

impl FaultKind {
    /// Every fault kind, in report-label order.
    pub const ALL: [FaultKind; 15] = [
        FaultKind::VTagFlip,
        FaultKind::VStateFlip,
        FaultKind::RPointerFlip,
        FaultKind::RInclusionFlip,
        FaultKind::RBufferFlip,
        FaultKind::RVdirtyFlip,
        FaultKind::VPointerFlip,
        FaultKind::CohStateFlip,
        FaultKind::TlbEntryFlip,
        FaultKind::WriteBufferDrop,
        FaultKind::VDataBit,
        FaultKind::RDataBit,
        FaultKind::BusDropTxn,
        FaultKind::BusDuplicateTxn,
        FaultKind::BusLostInvalidate,
    ];

    /// Whether this kind corrupts a transaction in flight rather than
    /// resident state (armed at the bus wrapper, not the port).
    pub const fn is_bus_level(self) -> bool {
        matches!(
            self,
            FaultKind::BusDropTxn | FaultKind::BusDuplicateTxn | FaultKind::BusLostInvalidate
        )
    }

    /// Whether this kind corrupts a *data* array word (covered by
    /// [`DataProtection`]) rather than
    /// tag/state/linking metadata (covered by the parity knob).
    pub const fn is_data_level(self) -> bool {
        matches!(self, FaultKind::VDataBit | FaultKind::RDataBit)
    }

    /// Stable report label.
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::VTagFlip => "v-tag-flip",
            FaultKind::VStateFlip => "v-state-flip",
            FaultKind::RPointerFlip => "r-pointer-flip",
            FaultKind::RInclusionFlip => "r-inclusion-flip",
            FaultKind::RBufferFlip => "r-buffer-flip",
            FaultKind::RVdirtyFlip => "r-vdirty-flip",
            FaultKind::VPointerFlip => "v-pointer-flip",
            FaultKind::CohStateFlip => "coh-state-flip",
            FaultKind::TlbEntryFlip => "tlb-entry-flip",
            FaultKind::WriteBufferDrop => "write-buffer-drop",
            FaultKind::VDataBit => "v-data-bit",
            FaultKind::RDataBit => "r-data-bit",
            FaultKind::BusDropTxn => "bus-drop-txn",
            FaultKind::BusDuplicateTxn => "bus-duplicate-txn",
            FaultKind::BusLostInvalidate => "bus-lost-invalidate",
        }
    }

    /// Whether a discarded line this kind hit can simply be refetched
    /// when it held no modified data: only a tag, coherence-state or
    /// data-word fault qualifies. A flipped dirty bit leaves the true
    /// value unknown, and corrupted linkage may have exposed the line
    /// through a wrong parent, so those always machine-check.
    const fn refetchable(self) -> bool {
        matches!(
            self,
            FaultKind::VTagFlip
                | FaultKind::VDataBit
                | FaultKind::CohStateFlip
                | FaultKind::RDataBit
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a successful injection corrupted, for deterministic reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The kind applied.
    pub kind: FaultKind,
    /// Human-readable description of the corrupted target (block ids,
    /// bit values) — stable across runs for a fixed seed.
    pub detail: String,
}

/// Fault-injection port implemented by every hierarchy.
///
/// An injection happens *between* accesses: the campaign harness runs
/// the workload up to a chosen access index, calls
/// [`inject_fault`](Self::inject_fault) once, and resumes. Target
/// selection within the structure is a pure function of `seed` and the
/// hierarchy's deterministic iteration order, never of hash-map order
/// or ambient entropy.
pub trait FaultPort {
    /// Applies `kind` to this hierarchy's state, returning what was
    /// corrupted, or `None` when no applicable target exists (e.g. an
    /// empty write buffer for [`FaultKind::WriteBufferDrop`], or a
    /// bus-level kind, which the port never handles).
    ///
    /// With [`parity`](crate::config::HierarchyConfig::parity) enabled
    /// the corruption also records a poison syndrome that the hierarchy
    /// scrubs — detects and recovers — at its next public operation.
    fn inject_fault(&mut self, kind: FaultKind, seed: u64) -> Option<FaultRecord>;
}

/// A modeled parity syndrome: which entry of which structure faulted.
///
/// Keys are post-corruption lookup keys — parity identifies the faulted
/// array entry, not the pre-fault value, so recovery must work from the
/// corrupted key plus whatever metadata the entry still holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Poison {
    /// A first-level line (V-cache or physical L1).
    L1Line {
        /// The corruption applied.
        kind: FaultKind,
        /// Which first-level front holds the line.
        child: ChildCache,
        /// The line's (post-corruption) lookup key.
        key: BlockId,
    },
    /// An R-cache / L2 line.
    L2Line {
        /// The corruption applied.
        kind: FaultKind,
        /// The line's physical block id.
        p2: BlockId,
    },
    /// A TLB entry.
    TlbEntry {
        /// Address space of the corrupted translation.
        asid: Asid,
        /// Virtual page of the corrupted translation.
        vpn: Vpn,
    },
    /// A dropped write-buffer entry (the granule that vanished).
    WbEntry {
        /// First-level block id of the lost pending write.
        p1: BlockId,
    },
    /// A first-level *data* word (carries the corrupted SECDED codeword
    /// so scrub can decode the syndrome and correct in place).
    L1Data {
        /// Which first-level front holds the line.
        child: ChildCache,
        /// The line's lookup key (data faults never change the key).
        key: BlockId,
        /// The stored, corrupted codeword.
        stored: Codeword,
    },
    /// An R-cache / L2 subentry's *data* word.
    L2Data {
        /// The line's physical block id.
        p2: BlockId,
        /// Index of the corrupted subentry within the line.
        sub: usize,
        /// The stored, corrupted codeword.
        stored: Codeword,
    },
}

/// Flips the lowest tag bit of `key` for a cache with `set_bits`
/// index bits: the result maps to the same set under a different tag.
pub(crate) fn flip_tag_bit(key: BlockId, set_bits: u32) -> BlockId {
    BlockId::new(key.raw() ^ (1u64 << set_bits))
}

/// The `seed`-th candidate, cycling. Every injection picks its target
/// this way from a deterministic iteration order (cache arrays, the
/// write buffer), never from hash-map order.
pub(crate) fn pick<T: Copy>(candidates: &[T], seed: u64) -> Option<T> {
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[(seed % candidates.len() as u64) as usize])
}

/// The `seed`-th valid line of a first-level array: its key and
/// metadata.
pub(crate) fn pick_line<'a, M: Copy + 'a>(
    lines: impl Iterator<Item = &'a Line<M>>,
    seed: u64,
) -> Option<(BlockId, M)> {
    let lines: Vec<(BlockId, M)> = lines.map(|l| (l.block, l.meta)).collect();
    pick(&lines, seed)
}

/// Flips data bit `seed % 64` of a stored word. Returns the bit, the
/// corrupted word, and the corrupted SECDED codeword the scrub decodes.
fn flip_word_bit(word: Version, seed: u64) -> (u32, Version, Codeword) {
    let bit = (seed % 64) as u32;
    let mut stored = Codeword::encode(word.raw());
    stored.flip_data_bit(bit);
    (bit, word.with_bit_flipped(bit), stored)
}

/// The state every first-level line keeps, whatever its organization:
/// the dirty bit and the stored data word (its oracle version).
#[derive(Debug, Clone, Copy)]
pub(crate) struct L1State {
    /// The line holds data newer than the level below.
    pub(crate) dirty: bool,
    /// The stored data word.
    pub(crate) version: Version,
}

/// First-level line metadata the shared corruptions rewrite.
pub(crate) trait L1Meta: Copy {
    /// The line's dirty bit and data word.
    fn state(&self) -> L1State;
    /// Overwrites the line's dirty bit and data word.
    fn set_state(&mut self, state: L1State);
}

/// What the scrub does about a detected data-word syndrome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataScrub {
    /// The codeword decodes clean: nothing to repair.
    Clean,
    /// SECDED located the single flipped bit and the word is repaired in
    /// place; `Some(i)` names the data bit to flip back, `None` means a
    /// check bit faulted and the data view is already right.
    Corrected(Option<u32>),
    /// Parity alone cannot correct, and SECDED cannot correct a
    /// multi-bit upset: the line is discarded like any other detected
    /// corruption.
    Discard,
}

/// The data-scrub decision for a stored codeword under `protection`.
pub(crate) fn data_scrub(protection: DataProtection, stored: Codeword) -> DataScrub {
    if protection != DataProtection::Secded {
        return DataScrub::Discard;
    }
    match stored.syndrome_decode() {
        Decode::Clean => DataScrub::Clean,
        Decode::Corrected { data_bit } => DataScrub::Corrected(data_bit),
        Decode::DoubleError => DataScrub::Discard,
    }
}

/// One hierarchy's modeled protection and its outstanding syndromes.
///
/// A metadata syndrome is kept only under
/// [`parity`](HierarchyConfig::parity), a data-word syndrome only when
/// the data arrays are protected, so with protection off the log stays
/// empty and the scrub at the entry of every public operation costs one
/// emptiness check.
#[derive(Debug, Clone)]
pub(crate) struct PoisonLog {
    parity: bool,
    data: DataProtection,
    pending: Vec<Poison>,
}

impl PoisonLog {
    /// An empty log with `cfg`'s protection.
    pub(crate) fn new(cfg: &HierarchyConfig) -> Self {
        PoisonLog {
            parity: cfg.parity,
            data: cfg.data_protection,
            pending: Vec::new(),
        }
    }

    /// True when no syndrome awaits a scrub.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Keeps `poison` for the next scrub when the structure it names is
    /// protected; an unprotected fault stays latent.
    pub(crate) fn note(&mut self, poison: Poison) {
        let detected = match poison {
            Poison::L1Data { .. } | Poison::L2Data { .. } => self.data != DataProtection::None,
            _ => self.parity,
        };
        if detected {
            self.pending.push(poison);
        }
    }

    /// Flips a tag bit of a first-level line, starting at the
    /// `seed`-th and skipping lines whose flipped tag collides with a
    /// resident one (a collision would be two faults). The line keeps
    /// its way: the retag refills the way it just freed.
    pub(crate) fn inject_l1_tag_flip<M: L1Meta>(
        &mut self,
        l1: &mut CacheArray<M>,
        line: &str,
        seed: u64,
    ) -> Option<FaultRecord> {
        let keys: Vec<BlockId> = l1.iter().map(|l| l.block).collect();
        let n = keys.len() as u64;
        let set_bits = l1.geometry().set_bits();
        for off in 0..n {
            let key = keys[((seed + off) % n) as usize];
            let flipped = flip_tag_bit(key, set_bits);
            if l1.peek(flipped).is_some() {
                continue;
            }
            let meta = l1.invalidate(key)?.meta;
            let out = l1.fill(flipped, meta, |_| true);
            debug_assert!(out.evicted.is_none(), "same set, freed way");
            self.note(Poison::L1Line {
                kind: FaultKind::VTagFlip,
                child: ChildCache::Data,
                key: flipped,
            });
            return Some(FaultRecord {
                kind: FaultKind::VTagFlip,
                detail: format!(
                    "{line} {key} retagged {flipped} dirty={}",
                    meta.state().dirty
                ),
            });
        }
        None
    }

    /// Flips the dirty bit of the `seed`-th first-level line.
    pub(crate) fn inject_l1_state_flip<M: L1Meta>(
        &mut self,
        l1: &mut CacheArray<M>,
        line: &str,
        seed: u64,
    ) -> Option<FaultRecord> {
        let (key, meta) = pick_line(l1.iter(), seed)?;
        let old = meta.state();
        let mut state = old;
        state.dirty = !old.dirty;
        l1.peek_mut(key)?.meta.set_state(state);
        self.note(Poison::L1Line {
            kind: FaultKind::VStateFlip,
            child: ChildCache::Data,
            key,
        });
        Some(FaultRecord {
            kind: FaultKind::VStateFlip,
            detail: format!("{line} {key} dirty {} -> {}", old.dirty, state.dirty),
        })
    }

    /// Flips one data bit of the `seed`-th first-level line's stored
    /// word. The syndrome carries the corrupted codeword so the scrub can
    /// decode it and correct in place.
    pub(crate) fn inject_l1_data_bit<M: L1Meta>(
        &mut self,
        l1: &mut CacheArray<M>,
        line: &str,
        seed: u64,
    ) -> Option<FaultRecord> {
        let (key, meta) = pick_line(l1.iter(), seed)?;
        let old = meta.state();
        let (bit, corrupted, stored) = flip_word_bit(old.version, seed);
        l1.peek_mut(key)?.meta.set_state(L1State {
            version: corrupted,
            ..old
        });
        self.note(Poison::L1Data {
            child: ChildCache::Data,
            key,
            stored,
        });
        Some(FaultRecord {
            kind: FaultKind::VDataBit,
            detail: format!(
                "{line} {key} data bit {bit} flipped ({} -> {corrupted}) dirty={}",
                old.version, old.dirty
            ),
        })
    }

    /// Corrupts the `seed`-picked TLB translation.
    pub(crate) fn inject_tlb_entry(&mut self, tlb: &mut Tlb, seed: u64) -> Option<FaultRecord> {
        let (asid, vpn) = tlb.corrupt_entry(seed)?;
        self.note(Poison::TlbEntry { asid, vpn });
        Some(FaultRecord {
            kind: FaultKind::TlbEntryFlip,
            detail: format!("tlb asid {} vpn {:#x}", asid.raw(), vpn.raw()),
        })
    }

    /// Drops the `seed`-th pending write-back from the buffer.
    pub(crate) fn inject_wb_drop(
        &mut self,
        wb: &mut WriteBuffer<Version>,
        seed: u64,
    ) -> Option<FaultRecord> {
        let pending: Vec<BlockId> = wb.iter().map(|e| e.block).collect();
        let p1 = pick(&pending, seed)?;
        wb.coherence_take(p1)?;
        self.note(Poison::WbEntry { p1 });
        Some(FaultRecord {
            kind: FaultKind::WriteBufferDrop,
            detail: format!("write buffer lost pending {p1}"),
        })
    }
}

/// Counts one detected fault whose line was discarded: a refetch when
/// the kind is [refetchable](FaultKind::refetchable) and no modified
/// data was lost, a machine check otherwise.
fn count_discard(events: &mut HierarchyEvents, kind: FaultKind, lost_dirty: bool) {
    if kind.refetchable() && !lost_dirty {
        events.parity_refetches += 1;
    } else {
        events.parity_machine_checks += 1;
    }
}

/// Detection and recovery, shared by every organization.
///
/// [`scrub_poison`](Self::scrub_poison) runs at the entry of every
/// public operation — before any lookup can consume corrupted state,
/// exactly as a parity check fires on the array read itself. It drains
/// the [`PoisonLog`], applies the [`data_scrub`] decision, re-walks
/// corrupted translations, and classifies every discard as a refetch or
/// a machine check. The organization supplies only how to discard its
/// own lines and sever the linkage that named them.
pub(crate) trait Scrub {
    /// The poison log, the event counters and the TLB.
    fn fault_parts(&mut self) -> (&mut PoisonLog, &mut HierarchyEvents, &mut Tlb);

    /// The second level, when the organization has one.
    fn second_level(&mut self) -> Option<&mut RCache>;

    /// The stored data word of first-level line `key` in `child`.
    fn l1_word(&mut self, child: ChildCache, key: BlockId) -> Option<&mut Version>;

    /// Discards first-level line `key` of `child`, which a `kind` fault
    /// hit, and severs the linkage that named it. Returns the line's
    /// dirty bit, or `None` when the line was already replaced.
    fn discard_l1_line(&mut self, kind: FaultKind, child: ChildCache, key: BlockId)
        -> Option<bool>;

    /// Recovers second-level line `p2` (for Goodman's scheme, the real
    /// directory entry of granule `p2`). Returns whether modified data
    /// was lost with it.
    fn discard_l2_line(&mut self, p2: BlockId) -> bool;

    /// Detects and recovers every outstanding syndrome; one emptiness
    /// check when there is none.
    #[inline]
    fn scrub_poison(&mut self) {
        if !self.fault_parts().0.pending.is_empty() {
            self.scrub_pending();
        }
    }

    /// The body of [`scrub_poison`](Self::scrub_poison).
    fn scrub_pending(&mut self) {
        let (log, _, _) = self.fault_parts();
        let protection = log.data;
        for poison in std::mem::take(&mut log.pending) {
            match poison {
                Poison::L1Line { kind, child, key } => self.scrub_l1_line(kind, child, key),
                Poison::L2Line { kind, p2 } => self.scrub_l2_line(kind, p2),
                Poison::L1Data { child, key, stored } => match data_scrub(protection, stored) {
                    DataScrub::Clean => {}
                    DataScrub::Corrected(bit) => {
                        let word = self.l1_word(child, key);
                        correct(word, bit);
                        self.fault_parts().1.secded_corrections += 1;
                    }
                    DataScrub::Discard => self.scrub_l1_line(FaultKind::VDataBit, child, key),
                },
                Poison::L2Data { p2, sub, stored } => match data_scrub(protection, stored) {
                    DataScrub::Clean => {}
                    DataScrub::Corrected(bit) => {
                        let word = self
                            .second_level()
                            .and_then(|l2| l2.peek_mut(p2))
                            .and_then(|line| line.meta.subs.get_mut(sub))
                            .map(|s| &mut s.version);
                        correct(word, bit);
                        self.fault_parts().1.secded_corrections += 1;
                    }
                    DataScrub::Discard => self.scrub_l2_line(FaultKind::RDataBit, p2),
                },
                Poison::TlbEntry { asid, vpn } => {
                    // A corrupted translation is simply re-walked: flush
                    // the entry and let the next miss refill it.
                    let (_, events, tlb) = self.fault_parts();
                    tlb.flush_asid_vpn(asid, vpn);
                    events.parity_refetches += 1;
                }
                Poison::WbEntry { p1 } => {
                    // The pending write vanished: clear the dangling
                    // buffer bit so the structure stays sound. The
                    // modified data is gone — machine check.
                    if let Some(l2) = self.second_level() {
                        l2.clear_buffer_bit(p1);
                    }
                    self.fault_parts().1.parity_machine_checks += 1;
                }
            }
        }
    }

    /// Discards a poisoned first-level line. A line already replaced
    /// took its fault with it and counts as a refetch.
    fn scrub_l1_line(&mut self, kind: FaultKind, child: ChildCache, key: BlockId) {
        let discarded = self.discard_l1_line(kind, child, key);
        let events = self.fault_parts().1;
        match discarded {
            Some(dirty) => count_discard(events, kind, dirty),
            None => events.parity_refetches += 1,
        }
    }

    /// Recovers a poisoned second-level line.
    fn scrub_l2_line(&mut self, kind: FaultKind, p2: BlockId) {
        let lost_dirty = self.discard_l2_line(p2);
        count_discard(self.fault_parts().1, kind, lost_dirty);
    }
}

/// Flips data bit `bit` of `word` back (SECDED in-place correction).
fn correct(word: Option<&mut Version>, bit: Option<u32>) {
    if let (Some(word), Some(bit)) = (word, bit) {
        *word = word.with_bit_flipped(bit);
    }
}

impl RCache {
    /// Flips the R-side field `kind` names in a `seed`-picked subentry
    /// and logs the line's syndrome. Prefers a target where the field is
    /// live — an inclusion-linked subentry for inclusion, vdirty and
    /// v-pointer faults, a buffered one for buffer faults, a shared line
    /// for a coherence-state flip (granting bogus exclusivity; the
    /// demotion direction only costs a redundant upgrade) — and falls
    /// back to any subentry. A corrupted v-pointer stays in its child's
    /// set (`v_set_bits` index bits). `line` labels the line in the
    /// report detail.
    pub(crate) fn inject_r_side(
        &mut self,
        kind: FaultKind,
        seed: u64,
        v_set_bits: u32,
        line: &str,
        log: &mut PoisonLog,
    ) -> Option<FaultRecord> {
        let mut preferred: Vec<(BlockId, usize)> = Vec::new();
        let mut any: Vec<(BlockId, usize)> = Vec::new();
        for l in self.iter() {
            for (si, sub) in l.meta.subs.iter().enumerate() {
                any.push((l.block, si));
                let live = match kind {
                    FaultKind::RBufferFlip => sub.buffer,
                    FaultKind::CohStateFlip => l.meta.state == CohState::Shared,
                    _ => sub.inclusion,
                };
                if live {
                    preferred.push((l.block, si));
                }
            }
        }
        let pool = if preferred.is_empty() { any } else { preferred };
        let (p2, si) = pick(&pool, seed)?;
        let target = self.peek_mut(p2)?;
        let sub = &mut target.meta.subs[si];
        let detail = match kind {
            FaultKind::RInclusionFlip => {
                sub.inclusion = !sub.inclusion;
                format!("{line} {p2} sub {si} inclusion -> {}", sub.inclusion)
            }
            FaultKind::RBufferFlip => {
                sub.buffer = !sub.buffer;
                format!("{line} {p2} sub {si} buffer -> {}", sub.buffer)
            }
            FaultKind::RVdirtyFlip => {
                sub.vdirty = !sub.vdirty;
                format!("{line} {p2} sub {si} vdirty -> {}", sub.vdirty)
            }
            FaultKind::VPointerFlip => {
                let old = sub.v_block;
                sub.v_block = flip_tag_bit(old, v_set_bits);
                format!("{line} {p2} sub {si} v-pointer {old} -> {}", sub.v_block)
            }
            FaultKind::CohStateFlip => {
                let old = target.meta.state;
                target.meta.state = match old {
                    CohState::Shared => CohState::Private,
                    CohState::Private => CohState::Shared,
                };
                format!("{line} {p2} state {old:?} -> {:?}", target.meta.state)
            }
            _ => return None,
        };
        log.note(Poison::L2Line { kind, p2 });
        Some(FaultRecord { kind, detail })
    }

    /// Flips one data bit of a `seed`-picked subentry's stored word,
    /// preferring a subentry whose copy is authoritative at this level
    /// (not shadowed by a dirty first-level child or a buffered write).
    pub(crate) fn inject_r_data_bit(
        &mut self,
        seed: u64,
        line: &str,
        log: &mut PoisonLog,
    ) -> Option<FaultRecord> {
        let mut preferred: Vec<(BlockId, usize, Version)> = Vec::new();
        let mut any: Vec<(BlockId, usize, Version)> = Vec::new();
        for l in self.iter() {
            for (si, sub) in l.meta.subs.iter().enumerate() {
                any.push((l.block, si, sub.version));
                if !sub.vdirty && !sub.buffer {
                    preferred.push((l.block, si, sub.version));
                }
            }
        }
        let pool = if preferred.is_empty() { any } else { preferred };
        let (p2, si, word) = pick(&pool, seed)?;
        let (bit, corrupted, stored) = flip_word_bit(word, seed);
        self.peek_mut(p2)?.meta.subs[si].version = corrupted;
        log.note(Poison::L2Data {
            p2,
            sub: si,
            stored,
        });
        Some(FaultRecord {
            kind: FaultKind::RDataBit,
            detail: format!("{line} {p2} sub {si} data bit {bit} flipped ({word} -> {corrupted})"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_unique_labels() {
        let mut labels: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }

    #[test]
    fn bus_level_kinds_are_exactly_the_bus_ones() {
        let bus: Vec<FaultKind> = FaultKind::ALL
            .iter()
            .copied()
            .filter(|k| k.is_bus_level())
            .collect();
        assert_eq!(
            bus,
            vec![
                FaultKind::BusDropTxn,
                FaultKind::BusDuplicateTxn,
                FaultKind::BusLostInvalidate,
            ]
        );
    }

    #[test]
    fn data_level_kinds_are_exactly_the_data_ones() {
        let data: Vec<FaultKind> = FaultKind::ALL
            .iter()
            .copied()
            .filter(|k| k.is_data_level())
            .collect();
        assert_eq!(data, vec![FaultKind::VDataBit, FaultKind::RDataBit]);
        for k in data {
            assert!(!k.is_bus_level());
        }
    }

    #[test]
    fn tag_flip_preserves_the_set() {
        let g = vrcache_cache::geometry::CacheGeometry::direct_mapped(256, 16).unwrap();
        let b = BlockId::new(0x37);
        let f = flip_tag_bit(b, g.set_bits());
        assert_ne!(f, b);
        assert_eq!(g.set_of(f), g.set_of(b));
    }

    use vrcache_cache::geometry::CacheGeometry;
    use vrcache_cache::replacement::ReplacementPolicy;
    use vrcache_mem::addr::Ppn;
    use vrcache_mem::tlb::TlbConfig;

    use crate::rcache::RMeta;
    use crate::vcache::VMeta;

    fn v(raw: u64) -> Version {
        Version::INITIAL.with_bit_flipped(raw as u32)
    }

    /// A log with both gates open, or with the given ones.
    fn log(parity: bool, data: DataProtection) -> PoisonLog {
        let mut cfg = HierarchyConfig::direct_mapped(256, 4096, 16)
            .unwrap()
            .with_data_protection(data);
        cfg.parity = parity;
        PoisonLog::new(&cfg)
    }

    /// 4 sets x 2 ways of 16-byte lines: tag flips move by 4 blocks.
    fn l1(lines: &[(u64, bool)]) -> CacheArray<VMeta> {
        let geo = CacheGeometry::new(128, 16, 2).unwrap();
        let mut a = CacheArray::new(geo, ReplacementPolicy::Lru, 1);
        for &(key, dirty) in lines {
            let meta = VMeta {
                p_block: BlockId::new(0x100 + key),
                dirty,
                swapped: false,
                version: v(key),
            };
            a.fill(BlockId::new(key), meta, |_| true);
        }
        a
    }

    #[test]
    fn data_scrub_decision_covers_every_protection_and_syndrome() {
        let clean = Codeword::encode(0x5a5a_0f0f);
        let mut data_bit = clean;
        data_bit.flip_data_bit(9);
        let mut check_bit = clean;
        check_bit.flip_position(1);
        let mut double = data_bit;
        double.flip_data_bit(20);
        let syndromes = [
            (clean, Decode::Clean),
            (data_bit, Decode::Corrected { data_bit: Some(9) }),
            (check_bit, Decode::Corrected { data_bit: None }),
            (double, Decode::DoubleError),
        ];
        let discard = [DataScrub::Discard; 4];
        let table = [
            (DataProtection::None, discard),
            (DataProtection::Parity, discard),
            (
                DataProtection::Secded,
                [
                    DataScrub::Clean,
                    DataScrub::Corrected(Some(9)),
                    DataScrub::Corrected(None),
                    DataScrub::Discard,
                ],
            ),
        ];
        for (protection, expected) in table {
            for (&(stored, decode), want) in syndromes.iter().zip(expected) {
                assert_eq!(stored.syndrome_decode(), decode);
                assert_eq!(
                    data_scrub(protection, stored),
                    want,
                    "{protection:?} x {decode:?}"
                );
            }
        }
    }

    #[test]
    fn poison_log_gates_metadata_on_parity_and_data_on_protection() {
        let meta = Poison::WbEntry {
            p1: BlockId::new(1),
        };
        let data = Poison::L1Data {
            child: ChildCache::Data,
            key: BlockId::new(1),
            stored: Codeword::encode(0),
        };
        for (parity, protection, keeps_meta, keeps_data) in [
            (false, DataProtection::None, false, false),
            (true, DataProtection::None, true, false),
            (false, DataProtection::Parity, false, true),
            (true, DataProtection::Secded, true, true),
        ] {
            let mut l = log(parity, protection);
            l.note(meta);
            assert_eq!(!l.is_empty(), keeps_meta, "{parity} {protection:?} meta");
            let mut l = log(parity, protection);
            l.note(data);
            assert_eq!(!l.is_empty(), keeps_data, "{parity} {protection:?} data");
        }
    }

    #[test]
    fn pick_cycles_and_declines_an_empty_pool() {
        assert_eq!(pick::<u8>(&[], 3), None);
        assert_eq!(pick(&[10, 11, 12], 1), Some(11));
        assert_eq!(pick(&[10, 11, 12], 5), Some(12));
    }

    #[test]
    fn clean_tag_data_and_state_refetch_only_when_nothing_dirty_is_lost() {
        for (kind, lost_dirty, refetch) in [
            (FaultKind::VTagFlip, false, true),
            (FaultKind::VDataBit, false, true),
            (FaultKind::CohStateFlip, false, true),
            (FaultKind::RDataBit, false, true),
            (FaultKind::VTagFlip, true, false),
            (FaultKind::VStateFlip, false, false),
            (FaultKind::RPointerFlip, false, false),
            (FaultKind::RInclusionFlip, false, false),
            (FaultKind::VPointerFlip, false, false),
        ] {
            let mut events = HierarchyEvents::default();
            count_discard(&mut events, kind, lost_dirty);
            assert_eq!(events.parity_refetches, u64::from(refetch), "{kind}");
            assert_eq!(events.parity_machine_checks, u64::from(!refetch), "{kind}");
        }
    }

    #[test]
    fn l1_tag_flip_starts_at_the_seed_and_skips_collisions() {
        let mut a = l1(&[(0, false), (1, true), (2, false)]);
        let mut l = log(true, DataProtection::None);
        let rec = l.inject_l1_tag_flip(&mut a, "v-line", 1).unwrap();
        assert_eq!(rec.detail, "v-line 0x1 retagged 0x5 dirty=true");
        assert!(a.peek(BlockId::new(1)).is_none());
        let moved = a.peek(BlockId::new(5)).unwrap();
        assert_eq!(
            moved.meta.p_block,
            BlockId::new(0x101),
            "metadata moves along"
        );
        assert_eq!(
            l.pending,
            vec![Poison::L1Line {
                kind: FaultKind::VTagFlip,
                child: ChildCache::Data,
                key: BlockId::new(5),
            }]
        );

        // Blocks 0 and 4 share set 0: flipping either tag would collide,
        // so the injection moves on to block 1.
        let mut a = l1(&[(0, false), (4, false), (1, false)]);
        let rec = l.inject_l1_tag_flip(&mut a, "line", 0).unwrap();
        assert_eq!(rec.detail, "line 0x1 retagged 0x5 dirty=false");
        assert!(l.inject_l1_tag_flip(&mut l1(&[]), "line", 0).is_none());
    }

    #[test]
    fn l1_state_flip_toggles_the_dirty_bit() {
        let mut a = l1(&[(0, false), (1, true)]);
        let mut l = log(true, DataProtection::None);
        let rec = l.inject_l1_state_flip(&mut a, "l1 line", 1).unwrap();
        assert_eq!(rec.detail, "l1 line 0x1 dirty true -> false");
        assert!(!a.peek(BlockId::new(1)).unwrap().meta.dirty);
        assert_eq!(a.peek(BlockId::new(1)).unwrap().meta.version, v(1));
        let rec = l.inject_l1_state_flip(&mut a, "l1 line", 0).unwrap();
        assert_eq!(rec.detail, "l1 line 0x0 dirty false -> true");
        assert!(a.peek(BlockId::new(0)).unwrap().meta.dirty);
        assert_eq!(l.pending.len(), 2);
    }

    #[test]
    fn l1_data_bit_flips_the_word_and_logs_its_codeword() {
        let mut a = l1(&[(0, false), (1, true)]);
        let mut l = log(false, DataProtection::Secded);
        let rec = l.inject_l1_data_bit(&mut a, "v-line", 65).unwrap();
        assert_eq!(rec.kind, FaultKind::VDataBit);
        assert_eq!(
            rec.detail,
            "v-line 0x1 data bit 1 flipped (v2 -> v0) dirty=true"
        );
        let line = a.peek(BlockId::new(1)).unwrap();
        assert_eq!(line.meta.version, Version::INITIAL);
        assert!(line.meta.dirty, "a data fault leaves the dirty bit alone");
        let [Poison::L1Data { key, stored, .. }] = l.pending[..] else {
            panic!("one data syndrome expected: {:?}", l.pending);
        };
        assert_eq!(key, BlockId::new(1));
        assert_eq!(stored.data(), 0);
        assert_eq!(
            stored.syndrome_decode(),
            Decode::Corrected { data_bit: Some(1) }
        );
    }

    #[test]
    fn tlb_and_write_buffer_injections_log_their_syndromes() {
        let mut l = log(true, DataProtection::None);
        let mut tlb = Tlb::new(TlbConfig::new(4, 1).unwrap());
        assert!(l.inject_tlb_entry(&mut tlb, 0).is_none());
        tlb.fill(Asid::new(2), Vpn::new(0x33), Ppn::new(7));
        let rec = l.inject_tlb_entry(&mut tlb, 5).unwrap();
        assert_eq!(rec.detail, "tlb asid 2 vpn 0x33");
        assert_eq!(tlb.lookup(Asid::new(2), Vpn::new(0x33)), Some(Ppn::new(6)));

        let mut wb = WriteBuffer::new(4);
        assert!(l.inject_wb_drop(&mut wb, 0).is_none());
        wb.push(BlockId::new(8), v(1), 0);
        wb.push(BlockId::new(9), v(2), 0);
        let rec = l.inject_wb_drop(&mut wb, 3).unwrap();
        assert_eq!(rec.detail, "write buffer lost pending 0x9");
        assert!(!wb.contains(BlockId::new(9)) && wb.contains(BlockId::new(8)));
        assert_eq!(
            l.pending,
            vec![
                Poison::TlbEntry {
                    asid: Asid::new(2),
                    vpn: Vpn::new(0x33),
                },
                Poison::WbEntry {
                    p1: BlockId::new(9),
                },
            ]
        );
    }

    /// Two 2-subentry lines: block 1 shared with sub 1 linked and
    /// buffered; block 2 private, untouched.
    fn l2() -> RCache {
        let mut r = RCache::new(
            CacheGeometry::direct_mapped(256, 32).unwrap(),
            CacheGeometry::direct_mapped(64, 16).unwrap(),
            ReplacementPolicy::Lru,
            1,
        );
        let mut shared = RMeta::fetched(CohState::Shared, &[v(3), v(4)]);
        shared.subs[1].inclusion = true;
        shared.subs[1].vdirty = true;
        shared.subs[1].buffer = true;
        shared.subs[1].v_block = BlockId::new(0x22);
        r.fill(BlockId::new(1), shared);
        r.fill(
            BlockId::new(2),
            RMeta::fetched(CohState::Private, &[v(5), v(6)]),
        );
        r
    }

    #[test]
    fn r_side_flips_prefer_a_live_field() {
        for (kind, detail) in [
            (
                FaultKind::RInclusionFlip,
                "r-line 0x1 sub 1 inclusion -> false",
            ),
            (FaultKind::RBufferFlip, "r-line 0x1 sub 1 buffer -> false"),
            (FaultKind::RVdirtyFlip, "r-line 0x1 sub 1 vdirty -> false"),
            (
                FaultKind::VPointerFlip,
                "r-line 0x1 sub 1 v-pointer 0x22 -> 0x32",
            ),
            (
                FaultKind::CohStateFlip,
                "r-line 0x1 state Shared -> Private",
            ),
        ] {
            let mut r = l2();
            let mut l = log(true, DataProtection::None);
            let rec = r.inject_r_side(kind, 7, 4, "r-line", &mut l).unwrap();
            assert_eq!(rec.detail, detail);
            assert_eq!(
                l.pending,
                vec![Poison::L2Line {
                    kind,
                    p2: BlockId::new(1),
                }]
            );
            let sub = r.peek(BlockId::new(1)).unwrap().meta.subs[1];
            assert_eq!(sub.inclusion, kind != FaultKind::RInclusionFlip, "{kind}");
            assert_eq!(sub.buffer, kind != FaultKind::RBufferFlip, "{kind}");
            assert_eq!(sub.vdirty, kind != FaultKind::RVdirtyFlip, "{kind}");
        }
        // Nothing shared left: the state flip falls back to any line and
        // promotes in the other direction too.
        let mut r = l2();
        let mut l = log(true, DataProtection::None);
        r.inject_r_side(FaultKind::CohStateFlip, 0, 4, "r-line", &mut l);
        let rec = r
            .inject_r_side(FaultKind::CohStateFlip, 3, 4, "l2 line", &mut l)
            .unwrap();
        assert_eq!(rec.detail, "l2 line 0x2 state Private -> Shared");
        assert!(r
            .inject_r_side(FaultKind::VTagFlip, 0, 4, "r-line", &mut l)
            .is_none());
    }

    #[test]
    fn r_data_bit_prefers_an_authoritative_subentry() {
        let mut r = l2();
        let mut l = log(false, DataProtection::Parity);
        // Sub 1 of block 1 is shadowed upstream; seed 1 picks the second
        // of the three authoritative subentries.
        let rec = r.inject_r_data_bit(1, "r-line", &mut l).unwrap();
        assert_eq!(
            rec.detail,
            "r-line 0x2 sub 0 data bit 1 flipped (v32 -> v34)"
        );
        assert_eq!(
            r.peek(BlockId::new(2)).unwrap().meta.subs[0].version,
            v(5).with_bit_flipped(1)
        );
        let [Poison::L2Data { p2, sub, stored }] = l.pending[..] else {
            panic!("one data syndrome expected: {:?}", l.pending);
        };
        assert_eq!((p2, sub), (BlockId::new(2), 0));
        assert_eq!(stored.data(), v(5).with_bit_flipped(1).raw());
    }
}
