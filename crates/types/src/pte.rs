//! x86-64-style page-table entry format, extended for Kindle.
//!
//! The PTE layout is the contract between the simulated hardware (TLB and
//! page-table walker in `kindle-tlb`) and the OS (`kindle-os`):
//!
//! ```text
//! bit  0      present
//! bit  1      writable
//! bit  2      user
//! bit  5      accessed
//! bit  6      dirty
//! bit  9      software: frame is NVM-backed (Kindle's MAP_NVM tag)
//! bits 12..52 physical frame number
//! bits 52..62 software: HSCC per-page access count (10 bits, saturating)
//! ```
//!
//! HSCC in the original paper widened PTEs to 96 bits to hold both DRAM and
//! NVM frame numbers; Kindle (and this reproduction) instead keeps 64-bit
//! PTEs and a separate lookup table, so the count fits in the ignored bits.

use core::fmt;

use crate::{MemKind, Pfn, PhysAddr, VirtAddr};

/// Physical address of the PTE consulted at `level` (4 = root .. 1 = leaf)
/// within the table frame `table` for virtual address `va`.
#[inline]
pub fn pte_addr(table: Pfn, va: VirtAddr, level: u8) -> PhysAddr {
    table.base() + (va.pt_index(level) * 8) as u64
}

/// A 64-bit page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(u64);

impl Pte {
    /// Present bit.
    pub const PRESENT: u64 = 1 << 0;
    /// Writable bit.
    pub const WRITABLE: u64 = 1 << 1;
    /// User-accessible bit.
    pub const USER: u64 = 1 << 2;
    /// Accessed bit (set by the walker).
    pub const ACCESSED: u64 = 1 << 5;
    /// Dirty bit (set by the walker on write).
    pub const DIRTY: u64 = 1 << 6;
    /// Software bit: the mapped frame lives in NVM.
    pub const NVM: u64 = 1 << 9;
    /// Software bit: the mapped frame failed patrol verification and was
    /// never healed — any access must fault instead of returning bytes.
    pub const POISONED: u64 = 1 << 10;

    const PFN_SHIFT: u32 = 12;
    const PFN_MASK: u64 = ((1u64 << 40) - 1) << Self::PFN_SHIFT;
    const COUNT_SHIFT: u32 = 52;
    const COUNT_MASK: u64 = ((1u64 << 10) - 1) << Self::COUNT_SHIFT;
    /// Maximum value of the saturating access counter.
    pub const COUNT_MAX: u64 = (1 << 10) - 1;

    /// Bits the hardware maintains behind the OS's back: access/dirty
    /// tracking plus the HSCC count field. A stored entry legitimately
    /// diverges from the kernel's intended value in exactly these bits,
    /// so integrity checks (the scrub daemon's shadow verify) must mask
    /// them out.
    pub const HW_MANAGED: u64 = Self::ACCESSED | Self::DIRTY | Self::COUNT_MASK;

    /// The all-zero (non-present) entry.
    pub const EMPTY: Pte = Pte(0);

    /// Builds a present leaf/table entry for `pfn` with `flag_bits` OR-ed in.
    pub fn new(pfn: Pfn, flag_bits: u64) -> Pte {
        Pte(Self::PRESENT | (pfn.as_u64() << Self::PFN_SHIFT) & Self::PFN_MASK | flag_bits)
    }

    /// Reconstructs an entry from its raw bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Pte {
        Pte(bits)
    }

    /// Raw bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// True if the present bit is set.
    #[inline]
    pub const fn is_present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// True if the writable bit is set.
    #[inline]
    pub const fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE != 0
    }

    /// True if the dirty bit is set.
    #[inline]
    pub const fn is_dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    /// True if the accessed bit is set.
    #[inline]
    pub const fn is_accessed(self) -> bool {
        self.0 & Self::ACCESSED != 0
    }

    /// True if the poison bit is set.
    #[inline]
    pub const fn is_poisoned(self) -> bool {
        self.0 & Self::POISONED != 0
    }

    /// Physical frame number stored in the entry.
    #[inline]
    pub const fn pfn(self) -> Pfn {
        Pfn::new((self.0 & Self::PFN_MASK) >> Self::PFN_SHIFT)
    }

    /// Memory kind recorded in the software NVM bit.
    #[inline]
    pub const fn mem_kind(self) -> MemKind {
        if self.0 & Self::NVM != 0 {
            MemKind::Nvm
        } else {
            MemKind::Dram
        }
    }

    /// Returns a copy with the given flag bits set.
    #[inline]
    pub const fn with_flags(self, flag_bits: u64) -> Pte {
        Pte(self.0 | flag_bits)
    }

    /// Returns a copy with the given flag bits cleared.
    #[inline]
    pub const fn without_flags(self, flag_bits: u64) -> Pte {
        Pte(self.0 & !flag_bits)
    }

    /// HSCC access count held in the ignored bits.
    #[inline]
    pub const fn access_count(self) -> u64 {
        (self.0 & Self::COUNT_MASK) >> Self::COUNT_SHIFT
    }

    /// Returns a copy with the access count replaced (saturating at
    /// [`Pte::COUNT_MAX`]).
    #[inline]
    pub fn with_access_count(self, count: u64) -> Pte {
        let c = count.min(Self::COUNT_MAX);
        Pte((self.0 & !Self::COUNT_MASK) | (c << Self::COUNT_SHIFT))
    }

    /// Returns a copy with the PFN replaced, keeping all flags and counters.
    #[inline]
    pub fn with_pfn(self, pfn: Pfn) -> Pte {
        Pte((self.0 & !Self::PFN_MASK) | ((pfn.as_u64() << Self::PFN_SHIFT) & Self::PFN_MASK))
    }
}

impl fmt::Debug for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_present() {
            return write!(f, "Pte(not-present, {:#x})", self.0);
        }
        write!(
            f,
            "Pte(pfn={}, {}{}{}{}, kind={}, count={})",
            self.pfn(),
            if self.is_writable() { "W" } else { "-" },
            if self.0 & Self::USER != 0 { "U" } else { "-" },
            if self.is_accessed() { "A" } else { "-" },
            if self.is_dirty() { "D" } else { "-" },
            self.mem_kind(),
            self.access_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_pfn_and_flags() {
        let p = Pte::new(Pfn::new(0x12345), Pte::WRITABLE | Pte::USER | Pte::NVM);
        assert!(p.is_present());
        assert!(p.is_writable());
        assert_eq!(p.pfn(), Pfn::new(0x12345));
        assert_eq!(p.mem_kind(), MemKind::Nvm);
        assert_eq!(Pte::from_bits(p.bits()), p);
    }

    #[test]
    fn empty_is_not_present() {
        assert!(!Pte::EMPTY.is_present());
        assert_eq!(Pte::EMPTY.bits(), 0);
    }

    #[test]
    fn access_count_saturates_and_preserves_pfn() {
        let p = Pte::new(Pfn::new(7), Pte::WRITABLE);
        let p2 = p.with_access_count(5000);
        assert_eq!(p2.access_count(), Pte::COUNT_MAX);
        assert_eq!(p2.pfn(), Pfn::new(7));
        assert!(p2.is_writable());
        let p3 = p2.with_access_count(3);
        assert_eq!(p3.access_count(), 3);
    }

    #[test]
    fn with_pfn_keeps_count_and_flags() {
        let p = Pte::new(Pfn::new(1), Pte::NVM).with_access_count(9);
        let q = p.with_pfn(Pfn::new(0x999));
        assert_eq!(q.pfn(), Pfn::new(0x999));
        assert_eq!(q.access_count(), 9);
        assert_eq!(q.mem_kind(), MemKind::Nvm);
    }

    #[test]
    fn poison_bit_round_trips() {
        let p = Pte::new(Pfn::new(3), Pte::WRITABLE | Pte::NVM);
        assert!(!p.is_poisoned());
        let q = p.with_flags(Pte::POISONED);
        assert!(q.is_poisoned());
        assert_eq!(q.pfn(), Pfn::new(3));
        assert!(q.is_writable());
        assert!(!q.without_flags(Pte::POISONED).is_poisoned());
        // Poison must live outside the hardware-managed bits: scrub's
        // shadow verify may not mask it away.
        assert_eq!(Pte::POISONED & Pte::HW_MANAGED, 0);
    }

    #[test]
    fn flag_set_clear() {
        let p = Pte::new(Pfn::new(1), 0);
        let q = p.with_flags(Pte::DIRTY | Pte::ACCESSED);
        assert!(q.is_dirty() && q.is_accessed());
        let r = q.without_flags(Pte::DIRTY);
        assert!(!r.is_dirty() && r.is_accessed());
    }

    #[test]
    fn debug_shows_fields() {
        let p = Pte::new(Pfn::new(2), Pte::WRITABLE);
        let s = format!("{p:?}");
        assert!(s.contains("pfn=0x2"));
        assert!(format!("{:?}", Pte::EMPTY).contains("not-present"));
    }
}
