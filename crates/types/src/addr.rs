//! Address newtypes: virtual/physical addresses and page/frame numbers.
//!
//! The newtypes keep virtual and physical address spaces statically distinct
//! so a physical frame number can never be passed where a virtual page number
//! is expected, which matters constantly in page-table and migration code.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use crate::{CACHE_LINE_SHIFT, PAGE_SHIFT, PAGE_SIZE};

macro_rules! addr_common {
    ($name:ident, $num:ident) => {
        impl $name {
            /// Wraps a raw 64-bit address.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw address value.
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Returns the raw address as `usize`.
            #[inline]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }

            /// Byte offset of this address within its page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE as u64 - 1)
            }

            /// Address of the start of the containing page.
            #[inline]
            pub const fn page_base(self) -> Self {
                Self(self.0 & !(PAGE_SIZE as u64 - 1))
            }

            /// Address of the start of the containing cache line.
            #[inline]
            pub const fn line_base(self) -> Self {
                Self(self.0 & !((1u64 << CACHE_LINE_SHIFT) - 1))
            }

            /// Index of the containing cache line within its page (0..64).
            #[inline]
            pub const fn line_in_page(self) -> usize {
                ((self.0 >> CACHE_LINE_SHIFT) & 0x3f) as usize
            }

            /// True if the address is page-aligned.
            #[inline]
            pub const fn is_page_aligned(self) -> bool {
                self.page_offset() == 0
            }

            /// Returns the containing page/frame number.
            #[inline]
            pub const fn page_number(self) -> $num {
                $num(self.0 >> PAGE_SHIFT)
            }

            /// Checked addition of a byte offset.
            #[inline]
            pub fn checked_add(self, rhs: u64) -> Option<Self> {
                self.0.checked_add(rhs).map(Self)
            }
        }

        impl Add<u64> for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $name {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;
            #[inline]
            fn sub(self, rhs: $name) -> u64 {
                self.0 - rhs.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

macro_rules! num_common {
    ($num:ident, $addr:ident) => {
        impl $num {
            /// Wraps a raw page/frame number.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw number.
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Returns the raw number as `usize`.
            #[inline]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }

            /// Base address of this page/frame.
            #[inline]
            pub const fn base(self) -> $addr {
                $addr::new(self.0 << PAGE_SHIFT)
            }
        }

        impl Add<u64> for $num {
            type Output = Self;
            #[inline]
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl Sub<$num> for $num {
            type Output = u64;
            #[inline]
            fn sub(self, rhs: $num) -> u64 {
                self.0 - rhs.0
            }
        }

        impl fmt::Debug for $num {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($num), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $num {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl From<u64> for $num {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

/// A virtual address in a simulated process address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

/// A physical address in the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

/// A virtual page number (`VirtAddr >> 12`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

/// A physical frame number (`PhysAddr >> 12`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(u64);

addr_common!(VirtAddr, Vpn);
addr_common!(PhysAddr, Pfn);
num_common!(Vpn, VirtAddr);
num_common!(Pfn, PhysAddr);

impl VirtAddr {
    /// Index into the page-table level `level` (1 = leaf .. 4 = root) that
    /// this address selects on an x86-64 4-level walk.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=4`.
    #[inline]
    pub fn pt_index(self, level: u8) -> usize {
        assert!((1..=4).contains(&level), "page-table level must be 1..=4");
        ((self.0 >> (PAGE_SHIFT + 9 * (level as u32 - 1))) & 0x1ff) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(va.page_offset(), 0x678);
        assert_eq!(va.page_base().as_u64(), 0x1234_5000);
        assert_eq!(va.page_number().as_u64(), 0x12345);
        assert_eq!(va.page_number().base().as_u64(), 0x1234_5000);
    }

    #[test]
    fn line_math() {
        let pa = PhysAddr::new(0x1000 + 64 * 3 + 17);
        assert_eq!(pa.line_base().as_u64(), 0x1000 + 64 * 3);
        assert_eq!(pa.line_in_page(), 3);
    }

    #[test]
    fn pt_indices_cover_48_bits() {
        // 0xff8 selects index 511 at level 1.
        let va = VirtAddr::new(0x0000_7fff_ffff_f000);
        assert_eq!(va.pt_index(1), 511);
        assert_eq!(va.pt_index(2), 511);
        assert_eq!(va.pt_index(3), 511);
        assert_eq!(va.pt_index(4), 255);
    }

    #[test]
    #[should_panic(expected = "page-table level")]
    fn pt_index_rejects_level_zero() {
        VirtAddr::new(0).pt_index(0);
    }

    #[test]
    fn arithmetic() {
        let a = PhysAddr::new(0x2000);
        assert_eq!((a + 0x10).as_u64(), 0x2010);
        assert_eq!(a + 0x10 - a, 0x10);
        let f = Pfn::new(4);
        assert_eq!((f + 1).as_u64(), 5);
        assert_eq!(f.base().as_u64(), 0x4000);
    }

    #[test]
    fn debug_is_nonempty_and_hex() {
        assert_eq!(format!("{:?}", VirtAddr::new(16)), "VirtAddr(0x10)");
        assert_eq!(format!("{}", Pfn::new(16)), "0x10");
    }
}
