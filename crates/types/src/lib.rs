//! Shared vocabulary types for the Kindle hybrid-memory framework.
//!
//! Every other Kindle crate builds on the newtypes defined here: virtual and
//! physical addresses, page-frame numbers, simulated time, memory kinds
//! (DRAM vs. NVM), access kinds, mapping flags, and the [`PhysMem`] trait
//! through which OS-level code reads and writes simulated physical memory
//! while being charged simulated time.
//!
//! # Examples
//!
//! ```
//! use kindle_types::{VirtAddr, PAGE_SIZE};
//!
//! let va = VirtAddr::new(0x4000_1234);
//! assert_eq!(va.page_offset(), 0x234);
//! assert_eq!(va.page_base().as_u64() % PAGE_SIZE as u64, 0);
//! ```

#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
// Clippy reports a `thread_local!` at crate level, where no narrower allow
// reaches; the `LocalKey` type ban in clippy.toml still scopes thread-locals
// in this crate to the two sanitizer items that allow it.
#![allow(clippy::disallowed_macros)]

pub mod addr;
pub mod checksum;
pub mod error;
pub mod flags;
pub mod physmem;
pub mod pte;
pub mod rng;
pub mod sanitize;
pub mod table;
pub mod time;

pub use addr::{Pfn, PhysAddr, VirtAddr, Vpn};
pub use checksum::checksum64;
pub use error::{KindleError, Result};
pub use flags::{AccessKind, MapFlags, MemKind, Prot};
pub use physmem::PhysMem;
pub use pte::Pte;
pub use rng::Rng64;
pub use table::{LineTable, SumTable};
pub use time::{Cycles, CPU_FREQ_GHZ};

/// Size of one page in bytes (4 KiB, matching x86-64 base pages).
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of one cache line in bytes.
pub const CACHE_LINE: usize = 64;
/// log2 of [`CACHE_LINE`].
pub const CACHE_LINE_SHIFT: u32 = 6;
/// Cache lines per page.
pub const LINES_PER_PAGE: usize = PAGE_SIZE / CACHE_LINE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_consistent() {
        assert_eq!(1usize << PAGE_SHIFT, PAGE_SIZE);
        assert_eq!(1usize << CACHE_LINE_SHIFT, CACHE_LINE);
        assert_eq!(LINES_PER_PAGE, 64);
    }
}
