//! OS metadata modification records.
//!
//! The kernel emits a [`MetaRecord`] for every modification of OS-level
//! process metadata; the persistence layer drains them into the NVM redo
//! log (§II-A: "we use redo log stored in NVM to capture all modifications
//! to the OS-level process meta-data").

use kindle_types::{MemKind, Pfn, Prot, VirtAddr, Vpn};

/// One metadata modification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaRecord {
    /// A process was created.
    ProcessCreate {
        /// New process id.
        pid: u32,
    },
    /// A VMA was added.
    VmaAdd {
        /// Owning process.
        pid: u32,
        /// Area start.
        start: VirtAddr,
        /// Area end (exclusive).
        end: VirtAddr,
        /// Protection.
        prot: Prot,
        /// Backing pool.
        kind: MemKind,
    },
    /// A VMA range was removed.
    VmaRemove {
        /// Owning process.
        pid: u32,
        /// Removed range start.
        start: VirtAddr,
        /// Removed range end.
        end: VirtAddr,
    },
    /// Protection changed on a range.
    VmaProtect {
        /// Owning process.
        pid: u32,
        /// Range start.
        start: VirtAddr,
        /// Range end.
        end: VirtAddr,
        /// New protection.
        prot: Prot,
    },
    /// A virtual page got a physical frame (demand paging).
    PageMapped {
        /// Owning process.
        pid: u32,
        /// Virtual page.
        vpn: Vpn,
        /// Frame.
        pfn: Pfn,
        /// Pool of the frame.
        kind: MemKind,
    },
    /// A virtual page lost its frame.
    PageUnmapped {
        /// Owning process.
        pid: u32,
        /// Virtual page.
        vpn: Vpn,
        /// Previously mapped frame.
        pfn: Pfn,
    },
    /// Register state changed enough to deserve a log entry (e.g. at
    /// syscall boundaries).
    RegsUpdated {
        /// Owning process.
        pid: u32,
    },
}

impl MetaRecord {
    /// Serialized size of one record in the NVM redo log, in bytes. Records
    /// are fixed-size (tag + pid + 4 payload words + checksum) to keep log
    /// replay trivial and torn-record detection per-record.
    pub const LOG_BYTES: u64 = 56;

    /// Owning process of the record.
    pub fn pid(&self) -> u32 {
        match *self {
            MetaRecord::ProcessCreate { pid }
            | MetaRecord::VmaAdd { pid, .. }
            | MetaRecord::VmaRemove { pid, .. }
            | MetaRecord::VmaProtect { pid, .. }
            | MetaRecord::PageMapped { pid, .. }
            | MetaRecord::PageUnmapped { pid, .. }
            | MetaRecord::RegsUpdated { pid } => pid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_extraction() {
        let r = MetaRecord::VmaAdd {
            pid: 7,
            start: VirtAddr::new(0),
            end: VirtAddr::new(0x1000),
            prot: Prot::RW,
            kind: MemKind::Nvm,
        };
        assert_eq!(r.pid(), 7);
        assert_eq!(MetaRecord::ProcessCreate { pid: 3 }.pid(), 3);
    }
}
