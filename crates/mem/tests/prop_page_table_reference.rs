//! Model-based test of the hashed [`MemoryMap`] against a naive reference:
//! one ordered map of ordered maps (ASID, then VPN) forward, an ordered
//! map from frame to names in reverse, and a frame counter.
//!
//! Random sequences of `translate_or_map`, `map_fresh`, `alias` and
//! `translate` calls, drawn from a few ASIDs and pages so that repeats
//! and rejected calls are common, run on both maps side by side. After
//! every call the two must agree on the returned address or error and on
//! `frames_allocated`; at the end they must agree on `synonyms_of` for
//! every frame (and a few past the last), `space_count`, and `iter_space`
//! of every ASID, in order.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use vrcache_mem::addr::{Asid, PhysAddr, Ppn, VirtAddr, Vpn};
use vrcache_mem::page::PageSize;
use vrcache_mem::page_table::MemoryMap;
use vrcache_mem::MemError;

const PAGE: u64 = 4096;
const ASIDS: u16 = 5;

/// The naive reference: tree walks everywhere.
#[derive(Default)]
struct Reference {
    spaces: BTreeMap<Asid, BTreeMap<Vpn, Ppn>>,
    reverse: BTreeMap<Ppn, Vec<(Asid, Vpn)>>,
    next_frame: u64,
}

impl Reference {
    fn install(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) {
        self.spaces.entry(asid).or_default().insert(vpn, ppn);
        self.reverse.entry(ppn).or_default().push((asid, vpn));
    }

    fn fresh(&mut self, asid: Asid, vpn: Vpn) -> Ppn {
        let ppn = Ppn::new(self.next_frame);
        self.next_frame += 1;
        self.install(asid, vpn, ppn);
        ppn
    }

    fn lookup(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        self.spaces.get(&asid)?.get(&vpn).copied()
    }

    fn translate_or_map(&mut self, asid: Asid, va: VirtAddr) -> PhysAddr {
        let vpn = Vpn::new(va.raw() / PAGE);
        let ppn = match self.lookup(asid, vpn) {
            Some(ppn) => ppn,
            None => self.fresh(asid, vpn),
        };
        PhysAddr::new(ppn.raw() * PAGE + va.raw() % PAGE)
    }

    fn map_fresh(&mut self, asid: Asid, va: VirtAddr) -> Result<Ppn, MemError> {
        let vpn = Vpn::new(va.raw() / PAGE);
        if self.lookup(asid, vpn).is_some() {
            return Err(MemError::AlreadyMapped);
        }
        Ok(self.fresh(asid, vpn))
    }

    fn alias(&mut self, asid: Asid, va: VirtAddr, ppn: Ppn) -> Result<(), MemError> {
        if ppn.raw() >= self.next_frame {
            return Err(MemError::Unmapped);
        }
        let vpn = Vpn::new(va.raw() / PAGE);
        if self.lookup(asid, vpn).is_some() {
            return Err(MemError::AlreadyMapped);
        }
        self.install(asid, vpn, ppn);
        Ok(())
    }

    fn translate(&self, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        let ppn = self.lookup(asid, Vpn::new(va.raw() / PAGE))?;
        Some(PhysAddr::new(ppn.raw() * PAGE + va.raw() % PAGE))
    }
}

#[derive(Debug, Clone)]
enum Op {
    TranslateOrMap(u16, u64, u64),
    MapFresh(u16, u64),
    Alias(u16, u64, u64),
    Translate(u16, u64, u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..ASIDS, 0u64..24, 0u64..PAGE).prop_map(|(a, v, o)| Op::TranslateOrMap(a, v, o)),
        2 => (0..ASIDS, 0u64..24).prop_map(|(a, v)| Op::MapFresh(a, v)),
        // Frames up to 48 so that some aliases name an unallocated frame.
        3 => (0..ASIDS, 0u64..24, 0u64..48).prop_map(|(a, v, p)| Op::Alias(a, v, p)),
        2 => (0..ASIDS, 0u64..24, 0u64..PAGE).prop_map(|(a, v, o)| Op::Translate(a, v, o)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hashed_map_agrees_with_the_tree_reference(
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let mut map = MemoryMap::new(PageSize::new(PAGE).unwrap());
        let mut reference = Reference::default();

        for op in &ops {
            match *op {
                Op::TranslateOrMap(a, v, o) => {
                    let va = VirtAddr::new(v * PAGE + o);
                    prop_assert_eq!(
                        map.translate_or_map(Asid::new(a), va),
                        reference.translate_or_map(Asid::new(a), va),
                        "{:?}", op
                    );
                }
                Op::MapFresh(a, v) => {
                    let va = VirtAddr::new(v * PAGE);
                    prop_assert_eq!(
                        map.map_fresh(Asid::new(a), va),
                        reference.map_fresh(Asid::new(a), va),
                        "{:?}", op
                    );
                }
                Op::Alias(a, v, p) => {
                    let va = VirtAddr::new(v * PAGE);
                    prop_assert_eq!(
                        map.alias(Asid::new(a), va, Ppn::new(p)),
                        reference.alias(Asid::new(a), va, Ppn::new(p)),
                        "{:?}", op
                    );
                }
                Op::Translate(a, v, o) => {
                    let va = VirtAddr::new(v * PAGE + o);
                    prop_assert_eq!(
                        map.translate(Asid::new(a), va),
                        reference.translate(Asid::new(a), va),
                        "{:?}", op
                    );
                    prop_assert_eq!(
                        map.translate_vpn(Asid::new(a), Vpn::new(v)),
                        reference.lookup(Asid::new(a), Vpn::new(v))
                    );
                }
            }
            prop_assert_eq!(map.frames_allocated(), reference.next_frame);
        }

        for p in 0..reference.next_frame + 4 {
            let ppn = Ppn::new(p);
            let names = reference.reverse.get(&ppn).map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(map.synonyms_of(ppn), names, "names of frame {}", p);
            prop_assert_eq!(map.has_synonyms(ppn), names.len() > 1);
        }
        prop_assert_eq!(map.space_count(), reference.spaces.len());
        for a in 0..ASIDS {
            let asid = Asid::new(a);
            let got: Vec<(Vpn, Ppn)> = map.iter_space(asid).collect();
            let want: Vec<(Vpn, Ppn)> = reference
                .spaces
                .get(&asid)
                .map(|m| m.iter().map(|(v, p)| (*v, *p)).collect())
                .unwrap_or_default();
            prop_assert_eq!(got, want, "iter_space({})", a);
        }
    }
}
