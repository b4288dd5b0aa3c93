//! Instruction-cost model for kernel routines.
//!
//! Every kernel routine charges (a) its real memory traffic through
//! [`kindle_types::PhysMem`] and (b) a fixed instruction count from this
//! table, standing in for the register-only work gem5 would execute. The
//! defaults approximate a lightweight kernel like gemOS; they are plain data
//! so experiments can ablate them.

/// Instruction counts (1 cycle each on the in-order core) per routine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelCosts {
    /// System-call entry/exit (mode switch, dispatch).
    pub syscall_entry: u64,
    /// Page-fault entry/exit (trap frame, decode).
    pub fault_entry: u64,
    /// VMA list operation (search + insert/split bookkeeping).
    pub vma_op: u64,
    /// Allocating or freeing one physical frame (list ops).
    pub frame_op: u64,
    /// Per-PTE manipulation overhead (index math, checks).
    pub pte_op: u64,
    /// Extra instructions to wrap one PTE store in the NVM-consistency
    /// mechanism (logging bookkeeping; the log's memory traffic is charged
    /// for real on top of this).
    pub pt_consistency_op: u64,
    /// Per-entry overhead of maintaining the virtual→NVM-frame mapping list
    /// during a checkpoint scan (hash/lookup/compare bookkeeping).
    pub mapping_list_op: u64,
    /// Appending one record to the metadata redo log.
    pub meta_log_op: u64,
    /// Per-entry software inspection of the SSP metadata cache at a
    /// consistency-interval end (load, test, clwb issue).
    pub ssp_inspect_op: u64,
    /// Per-page overhead of migration bookkeeping (HSCC).
    pub migration_page_op: u64,
    /// Fixed cost of a context switch into a kernel thread (consolidation,
    /// migration daemon).
    pub kthread_switch: u64,
    /// Retiring a worn-out NVM frame: fault bookkeeping, allocator update
    /// and remap orchestration (the page copy's traffic is charged for
    /// real on top of this).
    pub frame_retire_op: u64,
    /// Per-frame fixed overhead of one scrubd verify pass over an NVM
    /// page-table frame (loop setup, checksum bookkeeping).
    pub scrub_frame_op: u64,
    /// Per-line overhead of reading back and checksumming one cache line
    /// during a scrub pass.
    pub scrub_line_op: u64,
    /// Zero newly allocated frames (gemOS zeroes on demand-alloc) — setting
    /// this false skips the 64-line clear, useful for microbenchmarks.
    pub zero_new_frames: bool,
}

impl Default for KernelCosts {
    fn default() -> Self {
        KernelCosts {
            syscall_entry: 250,
            fault_entry: 350,
            vma_op: 300,
            frame_op: 120,
            pte_op: 12,
            pt_consistency_op: 600,
            mapping_list_op: 40,
            meta_log_op: 80,
            ssp_inspect_op: 900,
            migration_page_op: 600,
            kthread_switch: 600,
            frame_retire_op: 800,
            scrub_frame_op: 400,
            scrub_line_op: 40,
            zero_new_frames: true,
        }
    }
}

impl KernelCosts {
    /// Cheap variant for unit tests (1 instruction everywhere, no zeroing)
    /// so tests assert on structure rather than big numbers.
    pub fn for_test() -> Self {
        KernelCosts {
            syscall_entry: 1,
            fault_entry: 1,
            vma_op: 1,
            frame_op: 1,
            pte_op: 1,
            pt_consistency_op: 1,
            mapping_list_op: 1,
            meta_log_op: 1,
            ssp_inspect_op: 1,
            migration_page_op: 1,
            kthread_switch: 1,
            frame_retire_op: 1,
            scrub_frame_op: 1,
            scrub_line_op: 1,
            zero_new_frames: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_nontrivial() {
        let c = KernelCosts::default();
        assert!(c.fault_entry > c.pte_op);
        assert!(c.zero_new_frames);
    }
}
