//! Predecoded instruction cache.
//!
//! The emulator decodes each fetched instruction **once** per page
//! generation: decoded instructions are stored in per-page run tables (a
//! flat `offset → decoded-instruction` map plus the backing vector of
//! decoded instructions), tagged with the [`Memory`](crate::mem::Memory)
//! write generation of the page they were decoded from. A write into a
//! cached page bumps that generation and the next fetch from the page
//! re-decodes — so self-modifying text is handled exactly, while the
//! dominant case (immutable text pages driven by `ret`-dispatched ROP
//! chains) hits the cache ~100% of the time.
//!
//! Instructions whose encoding straddles a page boundary are never cached:
//! their bytes span two pages and a single generation tag could not cover
//! both. They fall back to the decode-per-fetch slow path, which is exact.
//!
//! The run tables are indexed by the memory's page slot, which
//! [`Memory::fetch_slot`](crate::mem::Memory::fetch_slot) returns from its
//! fetch TLB and which stays fixed for the memory's lifetime. A cache hit
//! therefore costs one TLB probe and two array loads, with no hash table of
//! its own. Untouched pages have no slot and are never cached.

use crate::inst::Inst;
use crate::mem::PAGE_SIZE;

/// A decoded instruction and its encoded length in bytes.
pub(crate) type Decoded = (Inst, u8);

/// Slot sentinel: offset not decoded yet.
const NO_SLOT: u16 = u16::MAX;

#[derive(Debug, Clone)]
struct PageRuns {
    /// Generation of the memory page these runs were decoded from.
    gen: u64,
    /// Byte offset → index into `insts`, or [`NO_SLOT`].
    slots: Box<[u16; PAGE_SIZE]>,
    /// Decoded instructions, in first-decode order.
    insts: Vec<Decoded>,
}

impl PageRuns {
    fn new(gen: u64) -> PageRuns {
        PageRuns { gen, slots: Box::new([NO_SLOT; PAGE_SIZE]), insts: Vec::new() }
    }

    fn clear(&mut self, gen: u64) {
        self.slots.fill(NO_SLOT);
        self.insts.clear();
        self.gen = gen;
    }
}

/// The predecoded instruction cache. One per [`Emulator`](crate::Emulator).
#[derive(Debug, Clone, Default)]
pub(crate) struct ICache {
    /// Run tables by memory page slot; `None` for pages never fetched from.
    pages: Vec<Option<PageRuns>>,
}

impl ICache {
    /// Looks up the decoded instruction at offset `off` of the page in
    /// memory slot `slot`, if it was decoded at memory generation `gen`.
    /// Runs from any other generation are dropped.
    #[inline(always)]
    pub(crate) fn lookup(&mut self, slot: usize, off: usize, gen: u64) -> Option<Decoded> {
        let runs = self.pages.get_mut(slot)?.as_mut()?;
        if runs.gen != gen {
            runs.clear(gen);
            return None;
        }
        let idx = runs.slots[off];
        if idx == NO_SLOT {
            return None;
        }
        Some(runs.insts[idx as usize])
    }

    /// Records the decoded instruction at (`slot`, `off`) for memory
    /// generation `gen`, dropping the page's runs from any other generation.
    /// The caller must ensure the instruction's bytes lie entirely within
    /// the page.
    pub(crate) fn insert(&mut self, slot: usize, off: usize, gen: u64, inst: Inst, len: u8) {
        debug_assert!(off + len as usize <= PAGE_SIZE, "straddling instructions are not cached");
        if slot >= self.pages.len() {
            self.pages.resize_with(slot + 1, || None);
        }
        let runs = self.pages[slot].get_or_insert_with(|| PageRuns::new(gen));
        if runs.gen != gen {
            runs.clear(gen);
        }
        // A page holds at most PAGE_SIZE decode starts, below NO_SLOT.
        runs.slots[off] = runs.insts.len() as u16;
        runs.insts.push((inst, len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn lookup_miss_then_hit_then_invalidation() {
        let mut ic = ICache::default();
        assert_eq!(ic.lookup(3, 5, 1), None);
        ic.insert(3, 5, 1, Inst::Ret, 1);
        assert_eq!(ic.lookup(3, 5, 1), Some((Inst::Ret, 1)));
        // Same page, newer generation: the run table is cleared.
        assert_eq!(ic.lookup(3, 5, 2), None);
        // And the old generation is gone too (monotonic tags).
        assert_eq!(ic.lookup(3, 5, 1), None);
    }

    #[test]
    fn pages_are_independent() {
        let mut ic = ICache::default();
        ic.insert(1, 0, 1, Inst::Ret, 1);
        ic.insert(2, 0, 7, Inst::Nop, 1);
        assert_eq!(ic.lookup(1, 0, 1), Some((Inst::Ret, 1)));
        assert_eq!(ic.lookup(2, 0, 7), Some((Inst::Nop, 1)));
        // Invalidating page 2 leaves page 1 alone.
        assert_eq!(ic.lookup(2, 0, 8), None);
        assert_eq!(ic.lookup(1, 0, 1), Some((Inst::Ret, 1)));
    }

    #[test]
    fn distinct_offsets_coexist_like_unaligned_gadget_decodes() {
        let mut ic = ICache::default();
        ic.insert(9, 100, 1, Inst::Pop(Reg::Rax), 2);
        ic.insert(9, 101, 1, Inst::Ret, 1);
        assert_eq!(ic.lookup(9, 100, 1), Some((Inst::Pop(Reg::Rax), 2)));
        assert_eq!(ic.lookup(9, 101, 1), Some((Inst::Ret, 1)));
    }
}
