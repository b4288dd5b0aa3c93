//! Memory kinds, access kinds, protection bits and mmap flags.

use core::fmt;
use core::ops::{BitOr, BitOrAssign};

/// Which memory technology backs a page: volatile DRAM or non-volatile NVM.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MemKind {
    /// Volatile DRAM (fast, loses contents on power failure).
    Dram,
    /// Non-volatile memory, modelled as PCM (slower, contents survive crashes).
    Nvm,
}

impl MemKind {
    /// All memory kinds, in dispatch order.
    pub const ALL: [MemKind; 2] = [MemKind::Dram, MemKind::Nvm];

    /// Short lowercase label used in stats output.
    pub fn label(self) -> &'static str {
        match self {
            MemKind::Dram => "dram",
            MemKind::Nvm => "nvm",
        }
    }
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a memory operation reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// Page protection bits requested through `mmap`/`mprotect`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Prot(u8);

impl Prot {
    /// No access.
    pub const NONE: Prot = Prot(0);
    /// Readable.
    pub const READ: Prot = Prot(1);
    /// Writable (implies readable in this model).
    pub const WRITE: Prot = Prot(2);
    /// Read + write.
    pub const RW: Prot = Prot(3);

    /// True if the protection includes `other` entirely.
    #[inline]
    pub fn contains(self, other: Prot) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if an access of `kind` is permitted.
    #[inline]
    pub fn allows(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.contains(Prot::READ) || self.contains(Prot::WRITE),
            AccessKind::Write => self.contains(Prot::WRITE),
        }
    }
}

impl BitOr for Prot {
    type Output = Prot;
    #[inline]
    fn bitor(self, rhs: Prot) -> Prot {
        Prot(self.0 | rhs.0)
    }
}

impl BitOrAssign for Prot {
    #[inline]
    fn bitor_assign(&mut self, rhs: Prot) {
        self.0 |= rhs.0;
    }
}

/// Flags accepted by the extended `mmap` system call.
///
/// The flag the paper adds to gemOS is [`MapFlags::NVM`]: it directs the
/// allocation to the NVM physical pool instead of DRAM.
///
/// # Examples
///
/// ```
/// use kindle_types::MapFlags;
///
/// let f = MapFlags::NVM | MapFlags::POPULATE;
/// assert!(f.contains(MapFlags::NVM));
/// assert!(!f.contains(MapFlags::FIXED));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MapFlags(u32);

impl MapFlags {
    /// No special behaviour: anonymous DRAM mapping.
    pub const EMPTY: MapFlags = MapFlags(0);
    /// Allocate physical frames from the NVM pool (the paper's `MAP_NVM`).
    pub const NVM: MapFlags = MapFlags(1);
    /// Map at exactly the requested address.
    pub const FIXED: MapFlags = MapFlags(2);
    /// Eagerly allocate and map all frames instead of faulting on demand.
    pub const POPULATE: MapFlags = MapFlags(4);

    /// True if every flag in `other` is set in `self`.
    #[inline]
    pub fn contains(self, other: MapFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Memory kind implied by the flags.
    #[inline]
    pub fn mem_kind(self) -> MemKind {
        if self.contains(MapFlags::NVM) {
            MemKind::Nvm
        } else {
            MemKind::Dram
        }
    }

    /// Raw bit representation.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Reconstructs flags from raw bits, ignoring unknown bits.
    #[inline]
    pub const fn from_bits_truncate(bits: u32) -> MapFlags {
        MapFlags(bits & 0b111)
    }
}

impl BitOr for MapFlags {
    type Output = MapFlags;
    #[inline]
    fn bitor(self, rhs: MapFlags) -> MapFlags {
        MapFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for MapFlags {
    #[inline]
    fn bitor_assign(&mut self, rhs: MapFlags) {
        self.0 |= rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prot_allows() {
        assert!(Prot::RW.allows(AccessKind::Write));
        assert!(Prot::READ.allows(AccessKind::Read));
        assert!(!Prot::READ.allows(AccessKind::Write));
        assert!(!Prot::NONE.allows(AccessKind::Read));
        assert!(Prot::WRITE.allows(AccessKind::Read));
    }

    #[test]
    fn map_flags_kind() {
        assert_eq!(MapFlags::EMPTY.mem_kind(), MemKind::Dram);
        assert_eq!(MapFlags::NVM.mem_kind(), MemKind::Nvm);
        assert_eq!((MapFlags::NVM | MapFlags::FIXED).mem_kind(), MemKind::Nvm);
    }

    #[test]
    fn map_flags_bits_round_trip() {
        let f = MapFlags::NVM | MapFlags::POPULATE;
        assert_eq!(MapFlags::from_bits_truncate(f.bits()), f);
        assert_eq!(MapFlags::from_bits_truncate(0xffff_ffff).bits(), 0b111);
    }

    #[test]
    fn display_labels() {
        assert_eq!(MemKind::Dram.to_string(), "dram");
        assert_eq!(MemKind::Nvm.to_string(), "nvm");
        assert_eq!(AccessKind::Read.to_string(), "read");
    }
}
