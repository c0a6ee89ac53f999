//! A multi-process page table with synonym support.
//!
//! The simulator does not model paging I/O; it only needs a stable,
//! deterministic virtual-to-physical mapping per process. [`MemoryMap`]
//! provides that mapping, demand-allocating physical frames on first touch,
//! plus an explicit [`alias`](MemoryMap::alias) operation that maps an
//! additional virtual page onto an existing physical page — a *synonym*,
//! the case the paper's R-cache reverse-translation machinery exists to
//! handle.

use core::hash::BuildHasherDefault;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use crate::addr::{Asid, PhysAddr, Ppn, VirtAddr, Vpn};
use crate::error::MemError;
use crate::hash::FoldHasher;
use crate::page::PageSize;

/// A deterministic multi-address-space page table with a frame allocator.
///
/// Translation is one hash probe: every address space shares a single
/// `(asid, vpn) → ppn` table hashed with [`FoldHasher`]. Frames are handed
/// out densely from 0 in first-touch order, so the reverse map is a vector
/// indexed by frame number.
///
/// # Example
///
/// Two virtual pages of two different processes can share one frame; the
/// translation preserves the page offset:
///
/// ```
/// use vrcache_mem::addr::{Asid, VirtAddr};
/// use vrcache_mem::page::PageSize;
/// use vrcache_mem::page_table::MemoryMap;
///
/// # fn main() -> Result<(), vrcache_mem::MemError> {
/// let mut map = MemoryMap::new(PageSize::new(4096)?);
/// let (p, q) = (Asid::new(1), Asid::new(2));
/// let pa = map.translate_or_map(p, VirtAddr::new(0x4000));
/// map.alias(q, VirtAddr::new(0x9000), map.page_size().ppn_of(pa))?;
/// let pb = map.translate(q, VirtAddr::new(0x9010)).unwrap();
/// assert_eq!(pb.raw(), pa.raw() + 0x10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryMap {
    page: PageSize,
    /// Forward mappings of every address space.
    forward: HashMap<(Asid, Vpn), Ppn, BuildHasherDefault<FoldHasher>>,
    /// Reverse mappings, indexed by frame number: which (asid, vpn) pairs
    /// name each frame, in mapping order. Its length is the number of
    /// frames allocated.
    reverse: Vec<Vec<(Asid, Vpn)>>,
}

impl MemoryMap {
    /// Creates an empty map for the given page size. Frames are handed out
    /// sequentially starting from physical page 0.
    pub fn new(page: PageSize) -> Self {
        MemoryMap {
            page,
            forward: HashMap::default(),
            reverse: Vec::new(),
        }
    }

    /// The page size this map was built with.
    #[inline]
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// Number of physical frames allocated so far.
    pub fn frames_allocated(&self) -> u64 {
        self.reverse.len() as u64
    }

    /// Translates a virtual address, returning `None` if its page is
    /// unmapped.
    pub fn translate(&self, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        let ppn = self.translate_vpn(asid, self.page.vpn_of(va))?;
        Some(self.page.rebase(va, ppn))
    }

    /// Translates a virtual page number, returning `None` if unmapped.
    pub fn translate_vpn(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        self.forward.get(&(asid, vpn)).copied()
    }

    /// Translates a virtual address, demand-mapping a fresh frame for its
    /// page if it was unmapped. This is the common path for the synthetic
    /// workload generator: every touched page gets a unique frame unless an
    /// [`alias`](Self::alias) was installed first.
    #[inline]
    pub fn translate_or_map(&mut self, asid: Asid, va: VirtAddr) -> PhysAddr {
        let vpn = self.page.vpn_of(va);
        let ppn = match self.forward.entry((asid, vpn)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(Self::allocate(&mut self.reverse, asid, vpn)),
        };
        self.page.rebase(va, ppn)
    }

    /// Maps `va`'s page in `asid` to a fresh frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AlreadyMapped`] if the page is already mapped.
    pub fn map_fresh(&mut self, asid: Asid, va: VirtAddr) -> Result<Ppn, MemError> {
        let vpn = self.page.vpn_of(va);
        match self.forward.entry((asid, vpn)) {
            Entry::Occupied(_) => Err(MemError::AlreadyMapped),
            Entry::Vacant(e) => Ok(*e.insert(Self::allocate(&mut self.reverse, asid, vpn))),
        }
    }

    /// Installs a *synonym*: maps `va`'s page in `asid` onto the existing
    /// physical page `ppn`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AlreadyMapped`] if the virtual page already has a
    /// mapping, and [`MemError::Unmapped`] if `ppn` has never been allocated
    /// (aliasing an arbitrary frame would break the sequential allocator's
    /// invariants).
    pub fn alias(&mut self, asid: Asid, va: VirtAddr, ppn: Ppn) -> Result<(), MemError> {
        let names = self
            .reverse
            .get_mut(ppn.raw() as usize)
            .ok_or(MemError::Unmapped)?;
        let vpn = self.page.vpn_of(va);
        match self.forward.entry((asid, vpn)) {
            Entry::Occupied(_) => Err(MemError::AlreadyMapped),
            Entry::Vacant(e) => {
                e.insert(ppn);
                names.push((asid, vpn));
                Ok(())
            }
        }
    }

    /// Hands out the next frame, named by `(asid, vpn)`.
    fn allocate(reverse: &mut Vec<Vec<(Asid, Vpn)>>, asid: Asid, vpn: Vpn) -> Ppn {
        let ppn = Ppn::new(reverse.len() as u64);
        reverse.push(vec![(asid, vpn)]);
        ppn
    }

    /// Returns every (asid, vpn) pair mapped to `ppn` — all names of a frame.
    pub fn synonyms_of(&self, ppn: Ppn) -> &[(Asid, Vpn)] {
        self.reverse
            .get(ppn.raw() as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Returns true if `ppn` is named by more than one virtual page.
    pub fn has_synonyms(&self, ppn: Ppn) -> bool {
        self.synonyms_of(ppn).len() > 1
    }

    /// Iterates over the mapped virtual pages of one address space, in
    /// VPN order. Collects and sorts that space's mappings on each call.
    pub fn iter_space(&self, asid: Asid) -> impl Iterator<Item = (Vpn, Ppn)> + '_ {
        let mut pages: Vec<(Vpn, Ppn)> = self
            .forward
            .iter()
            .filter(|((a, _), _)| *a == asid)
            .map(|((_, v), p)| (*v, *p))
            .collect();
        pages.sort_unstable();
        pages.into_iter()
    }

    /// Number of distinct address spaces that have at least one mapping.
    pub fn space_count(&self) -> usize {
        let asids: BTreeSet<Asid> = self.forward.keys().map(|(a, _)| *a).collect();
        asids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map4k() -> MemoryMap {
        MemoryMap::new(PageSize::new(4096).unwrap())
    }

    #[test]
    fn demand_mapping_is_stable() {
        let mut m = map4k();
        let a = Asid::new(7);
        let pa1 = m.translate_or_map(a, VirtAddr::new(0x1000));
        let pa2 = m.translate_or_map(a, VirtAddr::new(0x1008));
        assert_eq!(pa2.raw(), pa1.raw() + 8);
        assert_eq!(m.translate(a, VirtAddr::new(0x1000)), Some(pa1));
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut m = map4k();
        let a = Asid::new(1);
        let p1 = m.translate_or_map(a, VirtAddr::new(0x1000));
        let p2 = m.translate_or_map(a, VirtAddr::new(0x2000));
        assert_ne!(m.page_size().ppn_of(p1), m.page_size().ppn_of(p2));
        assert_eq!(m.frames_allocated(), 2);
    }

    #[test]
    fn distinct_spaces_are_isolated() {
        let mut m = map4k();
        let pa = m.translate_or_map(Asid::new(1), VirtAddr::new(0x5000));
        let pb = m.translate_or_map(Asid::new(2), VirtAddr::new(0x5000));
        assert_ne!(pa, pb);
    }

    #[test]
    fn unmapped_translation_is_none() {
        let m = map4k();
        assert_eq!(m.translate(Asid::new(1), VirtAddr::new(0)), None);
        assert_eq!(m.translate_vpn(Asid::new(1), Vpn::new(0)), None);
    }

    #[test]
    fn alias_creates_synonym() {
        let mut m = map4k();
        let a = Asid::new(1);
        let pa = m.translate_or_map(a, VirtAddr::new(0x4000));
        let ppn = m.page_size().ppn_of(pa);
        m.alias(a, VirtAddr::new(0x8000), ppn).unwrap();
        let pb = m.translate(a, VirtAddr::new(0x8123)).unwrap();
        assert_eq!(m.page_size().ppn_of(pb), ppn);
        assert_eq!(m.page_size().offset_of(pb.raw()), 0x123);
        assert!(m.has_synonyms(ppn));
        assert_eq!(m.synonyms_of(ppn).len(), 2);
    }

    #[test]
    fn alias_rejects_unallocated_frame() {
        let mut m = map4k();
        assert_eq!(
            m.alias(Asid::new(1), VirtAddr::new(0), Ppn::new(5)),
            Err(MemError::Unmapped)
        );
    }

    #[test]
    fn alias_rejects_remapping() {
        let mut m = map4k();
        let a = Asid::new(1);
        let pa = m.translate_or_map(a, VirtAddr::new(0x4000));
        let ppn = m.page_size().ppn_of(pa);
        assert_eq!(
            m.alias(a, VirtAddr::new(0x4000), ppn),
            Err(MemError::AlreadyMapped)
        );
    }

    #[test]
    fn map_fresh_rejects_double_map() {
        let mut m = map4k();
        let a = Asid::new(1);
        m.map_fresh(a, VirtAddr::new(0x1000)).unwrap();
        assert_eq!(
            m.map_fresh(a, VirtAddr::new(0x1000)),
            Err(MemError::AlreadyMapped)
        );
    }

    #[test]
    fn iter_space_lists_mappings() {
        let mut m = map4k();
        let a = Asid::new(1);
        m.translate_or_map(a, VirtAddr::new(0x1000));
        m.translate_or_map(a, VirtAddr::new(0x3000));
        let pages: Vec<_> = m.iter_space(a).collect();
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].0, Vpn::new(1));
        assert_eq!(pages[1].0, Vpn::new(3));
        assert_eq!(m.space_count(), 1);
    }

    #[test]
    fn cross_space_synonyms() {
        let mut m = map4k();
        let pa = m.translate_or_map(Asid::new(1), VirtAddr::new(0x4000));
        let ppn = m.page_size().ppn_of(pa);
        m.alias(Asid::new(2), VirtAddr::new(0xf000), ppn).unwrap();
        let names = m.synonyms_of(ppn);
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].0, Asid::new(1));
        assert_eq!(names[1].0, Asid::new(2));
    }
}
