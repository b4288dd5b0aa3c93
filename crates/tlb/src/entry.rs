//! TLB entries and the SSP/HSCC hardware extensions.

use kindle_types::{MemKind, Pfn, PhysAddr, Vpn};

/// SSP's per-entry extension: the supplementary physical page plus the
/// `updated`/`current` bitmaps, one bit per cache line of the page (64).
///
/// `current` says, per line, which of the two physical pages (original = 0,
/// shadow = 1) holds the latest *committed* data. `updated` marks the lines
/// written inside the current consistency interval — those writes were
/// routed to the non-current page and will be committed at interval end.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SspTlbExt {
    /// The shadow (supplementary) physical frame paired with the entry.
    pub shadow_pfn: Pfn,
    /// Lines written during the open consistency interval.
    pub updated: u64,
    /// Line-granularity committed-location bitmap.
    pub current: u64,
}

impl SspTlbExt {
    /// Physical frame a *write* to `line` must be routed to: the page that
    /// does **not** hold the committed data for that line.
    pub fn write_target(&self, orig: Pfn, line: usize) -> Pfn {
        if self.current >> line & 1 == 0 {
            self.shadow_pfn
        } else {
            orig
        }
    }

    /// Physical frame a *read* of `line` must be routed to: the committed
    /// page, unless the line was updated in this interval (then the new data
    /// lives on the write-target side).
    pub fn read_target(&self, orig: Pfn, line: usize) -> Pfn {
        let committed_is_shadow = self.current >> line & 1 == 1;
        let updated = self.updated >> line & 1 == 1;
        // updated flips the side relative to committed.
        if committed_is_shadow != updated {
            self.shadow_pfn
        } else {
            orig
        }
    }

    /// Commits the interval: lines written this interval flip their
    /// `current` side; `updated` clears.
    pub fn commit(&mut self) {
        self.current ^= self.updated;
        self.updated = 0;
    }
}

/// One translation with Kindle's hardware extensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: Vpn,
    /// Mapped physical frame.
    pub pfn: Pfn,
    /// Whether writes are permitted.
    pub writable: bool,
    /// Backing technology of the frame.
    pub mem_kind: MemKind,
    /// Dirty bit mirrored from the PTE.
    pub dirty: bool,
    /// SSP extension fields, present only for NVM pages inside a FASE.
    pub ssp: Option<SspTlbExt>,
    /// HSCC per-page access count (incremented on LLC miss).
    pub access_count: u32,
    /// HSCC: whether the count was already propagated to the PTE during the
    /// current migration interval.
    pub count_written_this_interval: bool,
    /// Physical address of the leaf PTE this entry was filled from, so the
    /// prototypes can write counters/bits back without a fresh walk.
    pub pte_pa: PhysAddr,
}

impl TlbEntry {
    /// Creates a plain entry with no prototype extensions.
    pub fn new(vpn: Vpn, pfn: Pfn, writable: bool, mem_kind: MemKind) -> Self {
        TlbEntry {
            vpn,
            pfn,
            writable,
            mem_kind,
            dirty: false,
            ssp: None,
            access_count: 0,
            count_written_this_interval: false,
            pte_pa: PhysAddr::new(0),
        }
    }

    /// Records the leaf PTE location backing this entry.
    pub fn with_pte_pa(mut self, pa: PhysAddr) -> Self {
        self.pte_pa = pa;
        self
    }

    /// Attaches an SSP extension (shadow page with clean bitmaps).
    pub fn with_ssp(mut self, shadow_pfn: Pfn, current: u64) -> Self {
        self.ssp = Some(SspTlbExt { shadow_pfn, updated: 0, current });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssp_routing_round_trip() {
        let orig = Pfn::new(0x10);
        let shadow = Pfn::new(0x20);
        let mut ext = SspTlbExt { shadow_pfn: shadow, updated: 0, current: 0 };

        // Committed data on orig; a write to line 3 goes to shadow.
        assert_eq!(ext.write_target(orig, 3), shadow);
        ext.updated |= 1 << 3;
        // An uncommitted read of line 3 sees the new data on shadow.
        assert_eq!(ext.read_target(orig, 3), shadow);
        // An untouched line still reads from orig.
        assert_eq!(ext.read_target(orig, 4), orig);

        ext.commit();
        assert_eq!(ext.updated, 0);
        assert_eq!(ext.current, 1 << 3);
        // After commit, line 3's committed copy is the shadow; the next
        // write goes back to orig.
        assert_eq!(ext.read_target(orig, 3), shadow);
        assert_eq!(ext.write_target(orig, 3), orig);
    }

    #[test]
    fn ssp_double_write_same_interval_keeps_side() {
        let orig = Pfn::new(1);
        let shadow = Pfn::new(2);
        let mut ext = SspTlbExt { shadow_pfn: shadow, updated: 0, current: 0 };
        assert_eq!(ext.write_target(orig, 0), shadow);
        ext.updated |= 1;
        // Second write in the same interval must hit the same side.
        assert_eq!(ext.write_target(orig, 0), shadow);
        ext.updated |= 1;
        ext.commit();
        assert_eq!(ext.current & 1, 1);
    }

    #[test]
    fn entry_builder() {
        let e =
            TlbEntry::new(Vpn::new(1), Pfn::new(2), true, MemKind::Nvm).with_ssp(Pfn::new(3), 0);
        assert!(e.ssp.is_some());
        assert_eq!(e.ssp.unwrap().shadow_pfn, Pfn::new(3));
        assert_eq!(e.access_count, 0);
    }
}
