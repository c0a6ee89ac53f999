//! [`CacheArray`] against a naive reference model, operation by
//! operation.
//!
//! The model keeps the obvious representation: one `Vec<Option<Line>>`
//! of slots, per-slot timestamps and per-set tree-PLRU direction flags,
//! and re-derives every victim with its own code (linear minimum for
//! LRU/FIFO, interval halving for tree-PLRU, the n-th candidate for
//! Random). Random sequences of `fill`/`lookup`/`peek`/`peek_mut`/
//! `invalidate`/`retain`/`clear` must produce identical results,
//! victims, ways and `fell_back` flags under every policy at 1, 2, 4 and
//! 8 ways.

use proptest::prelude::*;
use vrcache_cache::array::{CacheArray, FillOutcome, Line};
use vrcache_cache::geometry::{BlockId, CacheGeometry};
use vrcache_cache::replacement::{ReplacementPolicy, XorShift64};

const SETS: u64 = 4;
const BLOCK: u64 = 16;
const SEED: u64 = 0x5EED;

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    Peek(u64),
    PeekMut(u64, u32),
    /// Fill `block` with `meta`, preferring victims whose `meta % 3` is
    /// not `protect` (`protect == 3` prefers every line).
    Fill(u64, u32, u32),
    Invalidate(u64),
    /// Keep lines whose `meta % modulus` differs from `residue`.
    Retain(u32, u32),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Blocks span three times the largest cache, so sets conflict.
    let blocks = 3 * SETS * 8;
    prop_oneof![
        6 => (0..blocks, any::<u32>(), 0u32..4).prop_map(|(b, m, p)| Op::Fill(b, m, p)),
        5 => (0..blocks).prop_map(Op::Lookup),
        2 => (0..blocks).prop_map(Op::Peek),
        2 => (0..blocks, any::<u32>()).prop_map(|(b, m)| Op::PeekMut(b, m)),
        2 => (0..blocks).prop_map(Op::Invalidate),
        1 => (2u32..5, 0u32..5).prop_map(|(m, r)| Op::Retain(m, r)),
        1 => Just(Op::Clear),
    ]
}

/// The naive model.
struct Model {
    policy: ReplacementPolicy,
    ways: usize,
    slots: Vec<Option<Line<u32>>>,
    stamps: Vec<u64>,
    /// Per set, per internal tree node: the victim search goes to the
    /// upper half of the node's way interval.
    prefer_upper: Vec<Vec<bool>>,
    rng: XorShift64,
    clock: u64,
}

impl Model {
    fn new(policy: ReplacementPolicy, ways: usize) -> Self {
        let slots = SETS as usize * ways;
        Model {
            policy,
            ways,
            slots: vec![None; slots],
            stamps: vec![0; slots],
            prefer_upper: vec![vec![false; ways.saturating_sub(1)]; SETS as usize],
            rng: XorShift64::new(SEED),
            clock: 0,
        }
    }

    fn set_of(b: BlockId) -> usize {
        (b.raw() % SETS) as usize
    }

    fn slot_of(&self, b: BlockId) -> Option<usize> {
        let base = Self::set_of(b) * self.ways;
        (base..base + self.ways).find(|&s| self.slots[s].as_ref().is_some_and(|l| l.block == b))
    }

    fn touch(&mut self, set: usize, way: usize) {
        let (mut lo, mut hi, mut node) = (0, self.ways, 0);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let upper = way >= mid;
            self.prefer_upper[set][node] = !upper;
            if upper {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
    }

    fn on_use(&mut self, slot: usize, fill: bool) {
        let (set, way) = (slot / self.ways, slot % self.ways);
        match self.policy {
            ReplacementPolicy::Lru => self.stamps[slot] = self.clock,
            ReplacementPolicy::Fifo if fill => self.stamps[slot] = self.clock,
            ReplacementPolicy::TreePlru => self.touch(set, way),
            _ => {}
        }
    }

    /// The victim among the ways whose bit is set in `candidates`.
    fn victim(&self, set: usize, candidates: u64, draw: u64) -> Option<usize> {
        let picks = || (0..self.ways).filter(move |w| candidates >> w & 1 == 1);
        let base = set * self.ways;
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let oldest = picks().map(|w| self.stamps[base + w]).min()?;
                picks().find(|&w| self.stamps[base + w] == oldest)
            }
            ReplacementPolicy::Random => {
                let n = u64::from(candidates.count_ones());
                picks().nth((draw % n.max(1)) as usize)
            }
            _ => {
                picks().next()?;
                let has = |a: usize, b: usize| (a..b).any(|w| candidates >> w & 1 == 1);
                let (mut lo, mut hi, mut node) = (0, self.ways, 0);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let upper = if self.prefer_upper[set][node] {
                        has(mid, hi)
                    } else {
                        !has(lo, mid)
                    };
                    if upper {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                Some(lo)
            }
        }
    }

    fn lookup(&mut self, b: BlockId) -> Option<u32> {
        let slot = self.slot_of(b)?;
        self.clock += 1;
        self.on_use(slot, false);
        self.slots[slot].as_ref().map(|l| l.meta)
    }

    fn fill(&mut self, b: BlockId, meta: u32, protect: u32) -> FillOutcome<u32> {
        let set = Self::set_of(b);
        let base = set * self.ways;
        self.clock += 1;
        let line = Some(Line { block: b, meta });
        if let Some(way) = (0..self.ways).find(|&w| self.slots[base + w].is_none()) {
            self.slots[base + way] = line;
            self.on_use(base + way, true);
            return FillOutcome {
                way: way as u32,
                evicted: None,
                fell_back: false,
            };
        }
        let preferred = (0..self.ways)
            .filter(|&w| {
                self.slots[base + w]
                    .as_ref()
                    .is_some_and(|l| prefers(l, protect))
            })
            .fold(0u64, |mask, w| mask | 1 << w);
        let draw = self.rng.next_u64();
        let all = (0..self.ways).fold(0u64, |mask, w| mask | 1 << w);
        let (way, fell_back) = match self.victim(set, preferred, draw) {
            Some(w) => (w, false),
            None => (self.victim(set, all, draw).unwrap(), true),
        };
        let evicted = std::mem::replace(&mut self.slots[base + way], line);
        self.on_use(base + way, true);
        FillOutcome {
            way: way as u32,
            evicted,
            fell_back,
        }
    }

    fn remove_where(&mut self, mut pred: impl FnMut(&Line<u32>) -> bool) -> Vec<Line<u32>> {
        let mut removed = Vec::new();
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(&mut pred) {
                removed.extend(slot.take());
            }
        }
        removed
    }

    fn lines(&self) -> Vec<Line<u32>> {
        self.slots.iter().flatten().cloned().collect()
    }
}

fn prefers(line: &Line<u32>, protect: u32) -> bool {
    line.meta % 3 != protect
}

fn policies() -> [ReplacementPolicy; 4] {
    [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
        ReplacementPolicy::TreePlru,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn array_matches_the_reference_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        for policy in policies() {
            for ways in [1u32, 2, 4, 8] {
                let geo = CacheGeometry::new(SETS * BLOCK * u64::from(ways), BLOCK, ways).unwrap();
                let mut cache: CacheArray<u32> = CacheArray::new(geo, policy, SEED);
                let mut model = Model::new(policy, ways as usize);
                for (step, op) in ops.iter().enumerate() {
                    let at = format!("{policy:?} {ways}-way step {step} {op:?}");
                    match *op {
                        Op::Lookup(b) => {
                            let b = BlockId::new(b);
                            prop_assert_eq!(cache.lookup(b).map(|l| l.meta), model.lookup(b), "{}", at);
                        }
                        Op::Peek(b) => {
                            let b = BlockId::new(b);
                            let want = model.slot_of(b).and_then(|s| model.slots[s].clone());
                            prop_assert_eq!(cache.peek(b).cloned(), want, "{}", at);
                        }
                        Op::PeekMut(b, meta) => {
                            let b = BlockId::new(b);
                            let got = cache.peek_mut(b).map(|l| {
                                l.meta = meta;
                                l.block
                            });
                            let want = model.slot_of(b).and_then(|s| {
                                let line = model.slots[s].as_mut()?;
                                line.meta = meta;
                                Some(line.block)
                            });
                            prop_assert_eq!(got, want, "{}", at);
                        }
                        Op::Fill(b, meta, protect) => {
                            let b = BlockId::new(b);
                            if model.slot_of(b).is_some() {
                                continue; // a fill of a present block is a caller bug
                            }
                            let got = cache.fill(b, meta, |l| prefers(l, protect));
                            prop_assert_eq!(got, model.fill(b, meta, protect), "{}", at);
                        }
                        Op::Invalidate(b) => {
                            let b = BlockId::new(b);
                            let want = model.slot_of(b).and_then(|s| model.slots[s].take());
                            prop_assert_eq!(cache.invalidate(b), want, "{}", at);
                        }
                        Op::Retain(modulus, residue) => {
                            let keep = |l: &Line<u32>| l.meta % modulus != residue;
                            let mut got = Vec::new();
                            let n = cache.retain(keep, |l| got.push(l));
                            let want = model.remove_where(|l| !keep(l));
                            prop_assert_eq!(n, want.len(), "{}", at);
                            prop_assert_eq!(got, want, "{}", at);
                        }
                        Op::Clear => {
                            let mut got = Vec::new();
                            let n = cache.clear(|l| got.push(l));
                            let want = model.remove_where(|_| true);
                            prop_assert_eq!(n, want.len(), "{}", at);
                            prop_assert_eq!(got, want, "{}", at);
                        }
                    }
                    prop_assert_eq!(cache.iter().cloned().collect::<Vec<_>>(), model.lines(), "{}", at);
                    prop_assert_eq!(cache.occupancy(), model.lines().len(), "{}", at);
                }
            }
        }
    }
}
