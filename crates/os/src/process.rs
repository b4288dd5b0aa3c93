//! Process control blocks.

use kindle_cpu::RegisterFile;

use crate::pagetable::AddressSpace;
use crate::vma::VmaList;

/// Scheduling/persistence state of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable.
    Ready,
    /// Currently executing on the core.
    Running,
    /// Recreated from a saved state and ready to resume.
    Recovered,
    /// Terminated.
    Dead,
}

/// A process: execution context plus memory layout.
#[derive(Clone, Debug)]
pub struct Process {
    /// Process id.
    pub pid: u32,
    /// Saved architectural registers.
    pub regs: RegisterFile,
    /// Virtual memory areas.
    pub vmas: VmaList,
    /// Page tables.
    pub aspace: AddressSpace,
    /// Lifecycle state.
    pub state: ProcState,
}

impl Process {
    /// Creates a ready process around a fresh address space.
    pub fn new(pid: u32, aspace: AddressSpace) -> Self {
        Process {
            pid,
            regs: RegisterFile::new(),
            vmas: VmaList::new(),
            aspace,
            state: ProcState::Ready,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameAllocator, FramePools, PersistentFrameAllocator};
    use crate::layout::Region;
    use crate::pagetable::PtMode;
    use kindle_types::physmem::FlatMem;
    use kindle_types::{Pfn, PhysAddr};

    #[test]
    fn new_process_is_ready_and_empty() {
        let mut mem = FlatMem::new(1 << 20);
        let mut pools = FramePools {
            dram: FrameAllocator::new("dram", Pfn::new(1), 64),
            nvm: PersistentFrameAllocator::new(
                FrameAllocator::new("nvm", Pfn::new(128), 64),
                Region { base: PhysAddr::new(0), size: 0x1000 },
            ),
        };
        let asp = AddressSpace::new(
            &mut mem,
            &mut pools,
            PtMode::Rebuild,
            Region { base: PhysAddr::new(0x1000), size: 0x1000 },
        )
        .unwrap();
        let p = Process::new(42, asp);
        assert_eq!(p.pid, 42);
        assert_eq!(p.state, ProcState::Ready);
        assert!(p.vmas.is_empty());
    }
}
