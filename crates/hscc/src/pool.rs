//! The DRAM page pool: free / clean / dirty lists.

use kindle_types::Pfn;

/// What occupies one pool slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occupant {
    /// NVM page whose contents are cached here.
    pub nvm: Pfn,
    /// Virtual page mapped to this slot.
    pub vpn: kindle_types::Vpn,
    /// Owning process.
    pub pid: u32,
}

#[derive(Clone, Debug)]
struct Slot {
    pfn: Pfn,
    occupant: Option<Occupant>,
}

/// Which list a slot was taken from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListKind {
    /// Never used or released.
    Free,
    /// Occupied, unmodified since copy (reusable without copy-back).
    Clean,
    /// Occupied and modified (requires copy-back to NVM).
    Dirty,
}

/// Counts of the three lists at a point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Slots never used or explicitly released.
    pub free: usize,
    /// Occupied slots whose page was not modified since the copy.
    pub clean: usize,
    /// Occupied slots with modified contents (need copy-back before reuse).
    pub dirty: usize,
}

/// The fixed pool of DRAM cache pages (paper: 512).
///
/// Lists are (re)built once per migration interval by
/// [`DramPool::refresh`], as in the paper; during the interval, selection
/// consumes free pages first, then clean, then dirty.
#[derive(Clone, Debug)]
pub struct DramPool {
    slots: Vec<Slot>,
    free: Vec<usize>,
    clean: Vec<usize>,
    dirty: Vec<usize>,
}

impl DramPool {
    /// Builds the pool over pre-allocated DRAM frames.
    pub fn new(pages: Vec<Pfn>) -> Self {
        let n = pages.len();
        DramPool {
            slots: pages.into_iter().map(|pfn| Slot { pfn, occupant: None }).collect(),
            free: (0..n).rev().collect(),
            clean: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// DRAM frame of `slot`.
    pub fn frame(&self, slot: usize) -> Pfn {
        self.slots[slot].pfn
    }

    /// Occupant of `slot`, if any.
    pub fn occupant(&self, slot: usize) -> Option<Occupant> {
        self.slots[slot].occupant
    }

    /// Slot caching the DRAM frame `pfn`, if it belongs to the pool.
    pub fn slot_of_frame(&self, pfn: Pfn) -> Option<usize> {
        self.slots.iter().position(|s| s.pfn == pfn)
    }

    /// Current list sizes.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot { free: self.free.len(), clean: self.clean.len(), dirty: self.dirty.len() }
    }

    /// Rebuilds the lists at the start of a migration interval.
    /// `is_dirty(slot, occupant)` classifies each occupied slot.
    pub fn refresh(&mut self, mut is_dirty: impl FnMut(usize, &Occupant) -> bool) {
        self.free.clear();
        self.clean.clear();
        self.dirty.clear();
        for i in (0..self.slots.len()).rev() {
            match &self.slots[i].occupant {
                None => self.free.push(i),
                Some(occ) => {
                    if is_dirty(i, occ) {
                        self.dirty.push(i);
                    } else {
                        self.clean.push(i);
                    }
                }
            }
        }
    }

    /// Takes the next slot for a migration, in free → clean → dirty order.
    /// Returns the slot index, its previous occupant (which the caller must
    /// unmap, and copy back if dirty) and which list it came from.
    pub fn take(&mut self) -> Option<(usize, Option<Occupant>, ListKind)> {
        if let Some(i) = self.free.pop() {
            return Some((i, self.slots[i].occupant.take(), ListKind::Free));
        }
        if let Some(i) = self.clean.pop() {
            return Some((i, self.slots[i].occupant.take(), ListKind::Clean));
        }
        if let Some(i) = self.dirty.pop() {
            return Some((i, self.slots[i].occupant.take(), ListKind::Dirty));
        }
        None
    }

    /// True if only dirty slots remain for [`DramPool::take`].
    pub fn only_dirty_left(&self) -> bool {
        self.free.is_empty() && self.clean.is_empty() && !self.dirty.is_empty()
    }

    /// Installs a new occupant into `slot`.
    pub fn occupy(&mut self, slot: usize, occ: Occupant) {
        self.slots[slot].occupant = Some(occ);
    }

    /// Releases `slot` (e.g. after its page was unmapped by the
    /// application). The slot joins the free list at the next
    /// [`DramPool::refresh`], avoiding duplicate entries mid-interval.
    pub fn release(&mut self, slot: usize) {
        self.slots[slot].occupant = None;
    }

    /// Iterates `(slot, occupant)` for occupied slots.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, &Occupant)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.occupant.as_ref().map(|o| (i, o)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_types::Vpn;

    fn occ(n: u64) -> Occupant {
        Occupant { nvm: Pfn::new(1000 + n), vpn: Vpn::new(0x40000 + n), pid: 1 }
    }

    fn pool(n: usize) -> DramPool {
        DramPool::new((0..n as u64).map(|i| Pfn::new(100 + i)).collect())
    }

    #[test]
    fn take_order_free_clean_dirty() {
        let mut p = pool(3);
        // Occupy slots 0 (clean) and 1 (dirty); slot 2 stays free.
        let (s0, _, _) = p.take().unwrap();
        p.occupy(s0, occ(0));
        let (s1, _, _) = p.take().unwrap();
        p.occupy(s1, occ(1));
        p.refresh(|i, _| i == s1);
        assert_eq!(p.snapshot(), PoolSnapshot { free: 1, clean: 1, dirty: 1 });

        let (a, prev_a, from_a) = p.take().unwrap();
        assert!(prev_a.is_none(), "free slot first");
        assert_eq!(from_a, ListKind::Free);
        let (b, prev_b, from_b) = p.take().unwrap();
        assert_eq!(b, s0, "clean before dirty");
        assert_eq!(from_b, ListKind::Clean);
        assert_eq!(prev_b.unwrap().nvm, Pfn::new(1000));
        assert!(p.only_dirty_left());
        let (c, prev_c, from_c) = p.take().unwrap();
        assert_eq!(c, s1);
        assert_eq!(from_c, ListKind::Dirty);
        assert!(prev_c.is_some());
        assert!(p.take().is_none(), "exhausted within the interval");
        let _ = a;
    }

    #[test]
    fn release_returns_to_free() {
        let mut p = pool(1);
        let (s, _, _) = p.take().unwrap();
        p.occupy(s, occ(9));
        p.refresh(|_, _| false);
        assert_eq!(p.snapshot().clean, 1);
        p.release(s);
        assert_eq!(p.snapshot().free, 0, "snapshot lists rebuilt on refresh only");
        p.refresh(|_, _| false);
        assert_eq!(p.snapshot().free, 1);
        assert!(p.occupant(s).is_none());
    }

    #[test]
    fn slot_of_frame_finds_pool_members() {
        let p = pool(4);
        assert_eq!(p.slot_of_frame(Pfn::new(102)), Some(2));
        assert_eq!(p.slot_of_frame(Pfn::new(999)), None);
    }

    #[test]
    fn occupied_iterates_in_use_slots() {
        let mut p = pool(3);
        let (s, _, _) = p.take().unwrap();
        p.occupy(s, occ(5));
        let v: Vec<_> = p.occupied().collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1.nvm, Pfn::new(1005));
    }
}
