//! Cache geometry: size / block / associativity and the address split.

use core::fmt;
use core::hash::BuildHasherDefault;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use vrcache_mem::{MemError, PhysAddr, SetIndex, Tag, VirtAddr};

/// A cache-block identifier: a byte address shifted right by the block bits.
///
/// The simulator keys caches by block id rather than by a (tag, set) pair so
/// that every line can always reconstruct the full address of the block it
/// holds (needed for write-backs and bus transactions). A `BlockId` is only
/// meaningful together with the [`CacheGeometry`] that produced it, and —
/// like the address it came from — is either a *virtual* or a *physical*
/// block id depending on which address space the cache indexes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct BlockId(u64);

impl BlockId {
    /// Wraps a raw block number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        BlockId(raw)
    }

    /// The raw block number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockId({:#x})", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A hash map keyed by [`BlockId`], hashed with [`BlockHasher`].
///
/// Build one with `BlockMap::default()`. Iteration order is a fixed
/// function of the keys inserted, but callers that render a map's
/// contents still sort them.
pub type BlockMap<V> = HashMap<BlockId, V, BuildHasherDefault<BlockHasher>>;

/// Deterministic multiplicative hasher for [`BlockId`] keys: a block id is
/// one `u64`, so hashing it is one golden-ratio multiply and fold (see
/// [`FoldHasher`](vrcache_mem::hash::FoldHasher)).
pub use vrcache_mem::hash::FoldHasher as BlockHasher;

/// Validated geometry of a set-associative cache.
///
/// # Example
///
/// The paper's headline first-level configuration — 16 KiB, direct-mapped,
/// 16-byte blocks:
///
/// ```
/// use vrcache_cache::geometry::CacheGeometry;
/// # fn main() -> Result<(), vrcache_mem::MemError> {
/// let g = CacheGeometry::new(16 * 1024, 16, 1)?;
/// assert_eq!(g.sets(), 1024);
/// assert_eq!(g.blocks(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    size_bytes: u64,
    block_bytes: u64,
    assoc: u32,
}

impl CacheGeometry {
    /// Creates a geometry of `size_bytes` total, `block_bytes` per block and
    /// `assoc`-way sets.
    ///
    /// # Errors
    ///
    /// All three parameters must be nonzero powers of two, the block must not
    /// exceed the total size, and `size / (block * assoc)` (the set count)
    /// must be at least 1.
    pub fn new(size_bytes: u64, block_bytes: u64, assoc: u32) -> Result<Self, MemError> {
        for (what, v) in [("cache size", size_bytes), ("block size", block_bytes)] {
            if v == 0 {
                return Err(MemError::Zero { what });
            }
            if !v.is_power_of_two() {
                return Err(MemError::NotPowerOfTwo { what, value: v });
            }
        }
        if assoc == 0 {
            return Err(MemError::Zero {
                what: "associativity",
            });
        }
        if !assoc.is_power_of_two() {
            return Err(MemError::NotPowerOfTwo {
                what: "associativity",
                value: assoc as u64,
            });
        }
        let way_bytes = block_bytes
            .checked_mul(assoc as u64)
            .ok_or(MemError::NotPowerOfTwo {
                what: "associativity",
                value: assoc as u64,
            })?;
        if way_bytes > size_bytes {
            return Err(MemError::TooSmall {
                what: "cache size",
                value: size_bytes,
                min: way_bytes,
            });
        }
        Ok(CacheGeometry {
            size_bytes,
            block_bytes,
            assoc,
        })
    }

    /// A direct-mapped geometry (associativity 1).
    ///
    /// # Errors
    ///
    /// Same as [`CacheGeometry::new`].
    pub fn direct_mapped(size_bytes: u64, block_bytes: u64) -> Result<Self, MemError> {
        Self::new(size_bytes, block_bytes, 1)
    }

    /// Total capacity in bytes.
    #[inline]
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Block (line) size in bytes.
    #[inline]
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Associativity (ways per set).
    #[inline]
    pub const fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets: `size / (block * assoc)`, computed as a shift
    /// because all three are validated powers of two.
    #[inline]
    pub const fn sets(&self) -> u64 {
        self.size_bytes >> (self.block_bytes.trailing_zeros() + self.assoc.trailing_zeros())
    }

    /// Total number of blocks (lines).
    #[inline]
    pub const fn blocks(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }

    /// `log2(block size)`.
    #[inline]
    pub const fn block_bits(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// `log2(sets)`.
    #[inline]
    pub const fn set_bits(&self) -> u32 {
        self.sets().trailing_zeros()
    }

    /// The block id containing a raw byte address.
    ///
    /// The raw entry point: a `BlockId` is space-ambiguous (see its
    /// docs), so callers holding a typed address should prefer
    /// [`vblock_of`](Self::vblock_of) / [`pblock_of`](Self::pblock_of),
    /// whose parameter types make the compiler reject an address from
    /// the wrong space.
    #[inline]
    pub fn block_of(&self, raw_addr: u64) -> BlockId {
        BlockId(raw_addr >> self.block_bits())
    }

    /// The block id containing a virtual address: the typed entry for
    /// virtually-indexed caches.
    ///
    /// A virtual address goes in:
    ///
    /// ```
    /// use vrcache_cache::geometry::CacheGeometry;
    /// use vrcache_mem::VirtAddr;
    /// let g = CacheGeometry::new(16 * 1024, 16, 1).unwrap();
    /// assert_eq!(g.vblock_of(VirtAddr::new(0x1230)).raw(), 0x123);
    /// ```
    ///
    /// A physical address is a type error, so an R-side name can never
    /// index the V-cache:
    ///
    /// ```compile_fail,E0308
    /// use vrcache_cache::geometry::CacheGeometry;
    /// use vrcache_mem::PhysAddr;
    /// let g = CacheGeometry::new(16 * 1024, 16, 1).unwrap();
    /// assert_eq!(g.vblock_of(PhysAddr::new(0x1230)).raw(), 0x123);
    /// ```
    #[inline]
    pub fn vblock_of(&self, va: VirtAddr) -> BlockId {
        self.block_of(va.raw())
    }

    /// The block id containing a physical address: the typed entry for
    /// physically-indexed caches.
    ///
    /// A physical address goes in:
    ///
    /// ```
    /// use vrcache_cache::geometry::CacheGeometry;
    /// use vrcache_mem::PhysAddr;
    /// let g = CacheGeometry::new(16 * 1024, 16, 1).unwrap();
    /// assert_eq!(g.pblock_of(PhysAddr::new(0x1230)).raw(), 0x123);
    /// ```
    ///
    /// A virtual address is a type error, so a V-side name can never
    /// index the R-cache or reach the bus:
    ///
    /// ```compile_fail,E0308
    /// use vrcache_cache::geometry::CacheGeometry;
    /// use vrcache_mem::VirtAddr;
    /// let g = CacheGeometry::new(16 * 1024, 16, 1).unwrap();
    /// assert_eq!(g.pblock_of(VirtAddr::new(0x1230)).raw(), 0x123);
    /// ```
    #[inline]
    pub fn pblock_of(&self, pa: PhysAddr) -> BlockId {
        self.block_of(pa.raw())
    }

    /// The set index a block maps to: the low [`set_bits`](Self::set_bits)
    /// of the block id.
    #[inline]
    pub fn set_of(&self, block: BlockId) -> SetIndex {
        SetIndex::new(block.raw() & (self.sets() - 1))
    }

    /// The tag of a block: the block-id bits above the set index. Together
    /// with [`set_of`](Self::set_of) this is the full block-id split — a
    /// block id is exactly `(tag << set_bits) | set`.
    #[inline]
    pub fn tag_of(&self, block: BlockId) -> Tag {
        Tag::new(block.raw() >> self.set_bits())
    }

    /// The set index a raw byte address maps to.
    #[inline]
    pub fn set_of_addr(&self, raw_addr: u64) -> SetIndex {
        self.set_of(self.block_of(raw_addr))
    }

    /// The first byte address of a block.
    #[inline]
    pub fn addr_of(&self, block: BlockId) -> u64 {
        block.raw() << self.block_bits()
    }

    /// Number of this cache's blocks that fit in one block of `inner`, i.e.
    /// `self.block_bytes / inner.block_bytes`.
    ///
    /// Used by the R-cache, whose blocks may span several V-cache blocks
    /// (`B2 >= B1`); each contained L1 block gets its own subentry.
    ///
    /// # Panics
    ///
    /// Panics if `inner`'s blocks are larger than this cache's blocks.
    pub fn subblocks_per_block(&self, inner: &CacheGeometry) -> u32 {
        assert!(
            self.block_bytes >= inner.block_bytes,
            "outer block ({}) smaller than inner block ({})",
            self.block_bytes,
            inner.block_bytes
        );
        (self.block_bytes / inner.block_bytes) as u32
    }

    /// Converts a block id of this geometry into the block id of the
    /// enclosing block in `outer` (which must have equal or larger blocks).
    pub fn block_in(&self, block: BlockId, outer: &CacheGeometry) -> BlockId {
        let shift = outer.block_bits() - self.block_bits();
        BlockId(block.raw() >> shift)
    }

    /// Index of `inner_block` among the sub-blocks of its enclosing block in
    /// this geometry: `0 ..< self.subblocks_per_block(inner)`.
    pub fn subblock_index(&self, inner: &CacheGeometry, inner_block: BlockId) -> u32 {
        let shift = self.block_bits() - inner.block_bits();
        (inner_block.raw() & ((1 << shift) - 1)) as u32
    }

    /// The `inner`-sized block ids contained in `block` of this geometry,
    /// in address order.
    pub fn subblocks_of(&self, inner: &CacheGeometry, block: BlockId) -> Subblocks {
        let shift = self.block_bits() - inner.block_bits();
        Subblocks {
            first: block.raw() << shift,
            count: 1 << shift,
        }
    }
}

/// The inner block ids of one outer block (an R-cache line's granules, or
/// a bus block's first-level blocks), in address order.
///
/// Two numbers stand in for the list: enumerating, indexing and
/// membership are arithmetic, and the value borrows nothing, so a caller
/// may keep it across mutations of the cache that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subblocks {
    first: u64,
    count: u64,
}

impl Subblocks {
    /// Subblock `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is not below the subblock count.
    #[inline]
    pub fn get(self, i: usize) -> BlockId {
        debug_assert!((i as u64) < self.count, "subblock {i} of {}", self.count);
        BlockId(self.first + i as u64)
    }

    /// Whether `block` is one of these subblocks.
    #[inline]
    pub fn contains(self, block: BlockId) -> bool {
        block.0.wrapping_sub(self.first) < self.count
    }

    /// The subblocks in address order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = BlockId> {
        (self.first..self.first + self.count).map(BlockId)
    }
}

impl fmt::Debug for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheGeometry({} B, {} B blocks, {}-way, {} sets)",
            self.size_bytes,
            self.block_bytes,
            self.assoc,
            self.sets()
        )
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = if self.size_bytes.is_multiple_of(1024) {
            format!("{}K", self.size_bytes / 1024)
        } else {
            format!("{}B", self.size_bytes)
        };
        write!(f, "{size}/{}B/{}-way", self.block_bytes, self.assoc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_parameters() {
        assert!(CacheGeometry::new(0, 16, 1).is_err());
        assert!(CacheGeometry::new(1024, 0, 1).is_err());
        assert!(CacheGeometry::new(1024, 16, 0).is_err());
        assert!(CacheGeometry::new(1000, 16, 1).is_err());
        assert!(CacheGeometry::new(1024, 17, 1).is_err());
        assert!(CacheGeometry::new(1024, 16, 3).is_err());
        // block * assoc > size
        assert!(CacheGeometry::new(64, 32, 4).is_err());
        assert!(CacheGeometry::new(16 * 1024, 16, 1).is_ok());
    }

    #[test]
    fn shifted_set_count_equals_the_quotient_up_to_one_mebibyte() {
        let pow2 = |max_bits: u32| (0..=max_bits).map(|b| 1u64 << b);
        let mut checked = 0;
        for size in pow2(20) {
            for block in pow2(20) {
                for assoc in pow2(20) {
                    let Ok(g) = CacheGeometry::new(size, block, assoc as u32) else {
                        continue;
                    };
                    assert_eq!(g.sets(), size / (block * assoc), "{g:?}");
                    checked += 1;
                }
            }
        }
        // Every (size, block, assoc) exponent triple with block + assoc <= size.
        assert_eq!(checked, (1..=21).map(|n| n * (n + 1) / 2).sum::<u64>());
    }

    #[test]
    fn paper_first_level_geometry() {
        let g = CacheGeometry::direct_mapped(16 * 1024, 16).unwrap();
        assert_eq!(g.sets(), 1024);
        assert_eq!(g.blocks(), 1024);
        assert_eq!(g.block_bits(), 4);
        assert_eq!(g.set_bits(), 10);
    }

    #[test]
    fn set_mapping_wraps() {
        let g = CacheGeometry::direct_mapped(64, 16).unwrap(); // 4 sets
        assert_eq!(g.set_of_addr(0), SetIndex::new(0));
        assert_eq!(g.set_of_addr(16), SetIndex::new(1));
        assert_eq!(g.set_of_addr(63), SetIndex::new(3));
        assert_eq!(g.set_of_addr(64), SetIndex::new(0));
    }

    #[test]
    fn typed_block_entries_match_the_raw_one() {
        let g = CacheGeometry::direct_mapped(64, 16).unwrap();
        assert_eq!(g.vblock_of(VirtAddr::new(0x123)), g.block_of(0x123));
        assert_eq!(g.pblock_of(PhysAddr::new(0x456)), g.block_of(0x456));
    }

    #[test]
    fn set_and_tag_are_the_block_id_split() {
        let g = CacheGeometry::new(256, 32, 2).unwrap(); // 4 sets, 2 set bits
        let b = g.block_of(0x7b3);
        let set = g.set_of(b);
        let tag = g.tag_of(b);
        assert_eq!(set.raw(), b.raw() & 3);
        assert_eq!(tag.raw(), b.raw() >> 2);
        assert_eq!((tag.raw() << g.set_bits()) | set.raw(), b.raw());
    }

    #[test]
    fn block_round_trip() {
        let g = CacheGeometry::new(256, 32, 2).unwrap();
        let b = g.block_of(0x123);
        assert_eq!(b.raw(), 0x123 >> 5);
        assert_eq!(g.addr_of(b), (0x123 >> 5) << 5);
    }

    #[test]
    fn fully_associative_has_one_set() {
        let g = CacheGeometry::new(128, 16, 8).unwrap();
        assert_eq!(g.sets(), 1);
        assert_eq!(g.set_of_addr(0xdead), SetIndex::new(0));
    }

    #[test]
    fn subblock_relationships() {
        let l1 = CacheGeometry::direct_mapped(64, 16).unwrap();
        let l2 = CacheGeometry::direct_mapped(256, 32).unwrap();
        assert_eq!(l2.subblocks_per_block(&l1), 2);
        // L1 blocks 4 and 5 live inside L2 block 2.
        assert_eq!(l1.block_in(BlockId::new(4), &l2), BlockId::new(2));
        assert_eq!(l1.block_in(BlockId::new(5), &l2), BlockId::new(2));
        assert_eq!(l2.subblock_index(&l1, BlockId::new(4)), 0);
        assert_eq!(l2.subblock_index(&l1, BlockId::new(5)), 1);
        let subs = l2.subblocks_of(&l1, BlockId::new(2));
        assert_eq!(
            subs.iter().collect::<Vec<_>>(),
            vec![BlockId::new(4), BlockId::new(5)]
        );
        assert_eq!(
            (subs.get(0), subs.get(1)),
            (BlockId::new(4), BlockId::new(5))
        );
        assert!(subs.contains(BlockId::new(5)) && !subs.contains(BlockId::new(6)));
        assert!(!subs.contains(BlockId::new(3)), "below the first subblock");
    }

    #[test]
    fn equal_block_sizes_are_one_to_one() {
        let g = CacheGeometry::direct_mapped(64, 16).unwrap();
        let h = CacheGeometry::direct_mapped(256, 16).unwrap();
        assert_eq!(h.subblocks_per_block(&g), 1);
        assert_eq!(g.block_in(BlockId::new(9), &h), BlockId::new(9));
        assert_eq!(h.subblock_index(&g, BlockId::new(9)), 0);
    }

    #[test]
    #[should_panic(expected = "outer block")]
    fn subblocks_panics_when_inverted() {
        let l1 = CacheGeometry::direct_mapped(64, 32).unwrap();
        let l2 = CacheGeometry::direct_mapped(256, 16).unwrap();
        let _ = l2.subblocks_per_block(&l1);
    }

    #[test]
    fn block_map_spreads_dense_and_strided_keys() {
        use core::hash::BuildHasher;
        let build = BuildHasherDefault::<BlockHasher>::default();
        // 1024 keys, dense or at a 4 KiB-page stride of 16-byte blocks:
        // the low 10 bits (a 1024-bucket table) must not collapse.
        for stride in [1u64, 256] {
            let buckets: std::collections::BTreeSet<u64> = (0..1024u64)
                .map(|k| build.hash_one(BlockId::new(k * stride)) & 1023)
                .collect();
            assert!(
                buckets.len() > 512,
                "stride {stride}: only {} of 1024 buckets used",
                buckets.len()
            );
        }
        let mut map: BlockMap<u32> = BlockMap::default();
        map.insert(BlockId::new(7), 1);
        map.insert(BlockId::new(7 << 20), 2);
        assert_eq!(map.get(&BlockId::new(7)), Some(&1));
        assert_eq!(map.get(&BlockId::new(7 << 20)), Some(&2));
        assert_eq!(map.get(&BlockId::new(8)), None);
    }

    #[test]
    fn display_forms() {
        let g = CacheGeometry::new(16 * 1024, 16, 2).unwrap();
        assert_eq!(g.to_string(), "16K/16B/2-way");
        assert!(format!("{g:?}").contains("512 sets"));
        let b = BlockId::new(0x2a);
        assert_eq!(b.to_string(), "0x2a");
        assert_eq!(format!("{b:?}"), "BlockId(0x2a)");
    }
}
