//! Model-specific registers used by the Kindle prototypes.
//!
//! The SSP prototype communicates the NVM virtual address range and the
//! physical base of the SSP metadata cache to the translation hardware via
//! MSRs; the HSCC prototype likewise publishes its lookup-table base.

use kindle_types::{PhysAddr, VirtAddr};

/// The machine's MSR file (only the Kindle-specific registers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsrFile {
    /// Start of the virtual range mapped to NVM (SSP consistency applies
    /// only inside this range). `None` disables the SSP hardware path.
    pub nvm_range: Option<(VirtAddr, VirtAddr)>,
    /// Physical base address of the SSP metadata cache in NVM.
    pub ssp_cache_base: Option<PhysAddr>,
    /// Physical base address of the HSCC NVM-to-DRAM lookup table.
    pub hscc_table_base: Option<PhysAddr>,
}

impl MsrFile {
    /// Creates an MSR file with every feature disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if `va` falls inside the published NVM range.
    pub fn in_nvm_range(&self, va: VirtAddr) -> bool {
        match self.nvm_range {
            Some((lo, hi)) => va >= lo && va < hi,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_check() {
        let mut msr = MsrFile::new();
        assert!(!msr.in_nvm_range(VirtAddr::new(0x5000)));
        msr.nvm_range = Some((VirtAddr::new(0x4000), VirtAddr::new(0x8000)));
        assert!(msr.in_nvm_range(VirtAddr::new(0x4000)));
        assert!(msr.in_nvm_range(VirtAddr::new(0x7fff)));
        assert!(!msr.in_nvm_range(VirtAddr::new(0x8000)));
        assert!(!msr.in_nvm_range(VirtAddr::new(0x3fff)));
    }
}
