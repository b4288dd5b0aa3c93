//! The saved-state area: per-process persistent slots in NVM.
//!
//! Slot layout (all offsets in bytes from the slot base):
//!
//! ```text
//!    0  pid        (u64; 0 = empty slot)
//!    8  valid copy (u64; 0 or 1, u64::MAX = no consistent copy yet)
//!   16  reserved
//!   64  context copy 0 (checksum word at copy-relative 2616)
//! 2688  context copy 1
//! 5312  mapping list copy 0 (count, checksum, then (vpn, pfn) pairs)
//!   ..  mapping list copy 1
//! ```
//!
//! A context copy holds the register file, the PTBR (persistent scheme),
//! the mapped-page count and the VMA table (up to [`MAX_VMAS`] entries).
//! Checkpoints write the *non-valid* copy and flip `valid` last, so a crash
//! at any point leaves one complete consistent copy.
//!
//! Each copy carries an FNV-1a checksum over its logical contents so that
//! recovery can detect a copy corrupted by a power cut that tore buffered
//! NVM writes (8-byte persist granularity). The `valid` flag itself is
//! *not* checksummed: it is a single 8-byte word whose atomic flip is the
//! checkpoint commit point, and [`publish`] drains the NVM write buffer on
//! both sides of the flip so it can never claim an undrained copy.
//!
//! [`publish`]: SlotHandle::publish

use kindle_cpu::RegisterFile;
use kindle_os::{Region, Vma};
use kindle_types::sanitize::{self, Event};
use kindle_types::{
    checksum64, KindleError, MemKind, Pfn, PhysAddr, PhysMem, Prot, Result, VirtAddr, Vpn,
};

/// Maximum VMAs storable in one context copy.
pub const MAX_VMAS: usize = 64;

const PID_OFF: u64 = 0;
const VALID_OFF: u64 = 8;
const COPY0_OFF: u64 = 64;
const COPY_BYTES: u64 = 2624;
const COPY1_OFF: u64 = COPY0_OFF + COPY_BYTES;
const LIST_OFF: u64 = COPY1_OFF + COPY_BYTES;

// Context-copy internal offsets.
const REGS_OFF: u64 = 0;
const ROOT_OFF: u64 = 152;
const MAPPED_OFF: u64 = 160;
const VMA_COUNT_OFF: u64 = 168;
const VMAS_OFF: u64 = 176;
const VMA_BYTES: u64 = 32;
// VMAs end at 176 + 64 * 32 = 2224; the checksum sits in the copy's last
// word (COPY_BYTES - 8).
const COPY_CKSUM_OFF: u64 = COPY_BYTES - 8;

// Mapping-list internal offsets (relative to the list copy base).
const LIST_CKSUM_OFF: u64 = 8;
const LIST_ENTRIES_OFF: u64 = 16;

/// No consistent copy exists yet.
pub const NO_VALID_COPY: u64 = u64::MAX;

/// A deserialized context copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedContext {
    /// Register file at the last checkpoint.
    pub regs: RegisterFile,
    /// PTBR (root table frame) — meaningful for the persistent scheme.
    pub root: Pfn,
    /// Leaf pages mapped at the last checkpoint.
    pub mapped_pages: u64,
    /// VMA layout at the last checkpoint.
    pub vmas: Vec<Vma>,
}

/// The saved-state area carved into fixed-size per-process slots.
#[derive(Clone, Copy, Debug)]
pub struct SavedStateArea {
    region: Region,
    slot_size: u64,
    max_procs: usize,
}

impl SavedStateArea {
    /// Divides `region` into `max_procs` slots.
    ///
    /// # Panics
    ///
    /// Panics if slots would be too small to hold even an empty context.
    pub fn new(region: Region, max_procs: usize) -> Self {
        let slot_size = region.size / max_procs as u64;
        assert!(slot_size >= LIST_OFF + 2 * 16, "saved-state slots too small: {slot_size} bytes");
        SavedStateArea { region, slot_size, max_procs }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.max_procs
    }

    /// Mapping-list capacity (entries) per copy.
    pub fn list_capacity(&self) -> u64 {
        ((self.slot_size - LIST_OFF) / 2 - LIST_ENTRIES_OFF) / 16
    }

    fn slot_base(&self, idx: usize) -> PhysAddr {
        assert!(idx < self.max_procs, "slot index out of range");
        self.region.base + idx as u64 * self.slot_size
    }

    /// Handle to slot `idx`.
    pub fn slot(&self, idx: usize) -> SlotHandle {
        SlotHandle { base: self.slot_base(idx), slot_size: self.slot_size }
    }

    /// Finds the slot owned by `pid` (reads each slot header).
    pub fn find(&self, mem: &mut dyn PhysMem, pid: u32) -> Option<usize> {
        (0..self.max_procs).find(|&i| self.slot(i).pid(mem) == pid as u64)
    }

    /// Finds or allocates a slot for `pid`.
    ///
    /// # Errors
    ///
    /// [`KindleError::RegionFull`] when all slots are taken.
    pub fn find_or_alloc(&self, mem: &mut dyn PhysMem, pid: u32) -> Result<usize> {
        if let Some(i) = self.find(mem, pid) {
            return Ok(i);
        }
        for i in 0..self.max_procs {
            let s = self.slot(i);
            if s.pid(mem) == 0 {
                s.init(mem, pid);
                return Ok(i);
            }
        }
        Err(KindleError::RegionFull("saved-state area"))
    }

    /// Iterates indices of occupied slots.
    pub fn occupied(&self, mem: &mut dyn PhysMem) -> Vec<usize> {
        (0..self.max_procs).filter(|&i| self.slot(i).pid(mem) != 0).collect()
    }
}

/// Accessor for one slot.
#[derive(Clone, Copy, Debug)]
pub struct SlotHandle {
    base: PhysAddr,
    slot_size: u64,
}

impl SlotHandle {
    pub(crate) fn list_base(&self, copy: u64) -> PhysAddr {
        let half = (self.slot_size - LIST_OFF) / 2;
        self.base + LIST_OFF + copy * half
    }

    pub(crate) fn copy_base(&self, copy: u64) -> PhysAddr {
        self.base + if copy == 0 { COPY0_OFF } else { COPY1_OFF }
    }

    /// Owning pid (0 = free).
    pub fn pid(&self, mem: &mut dyn PhysMem) -> u64 {
        mem.read_u64(self.base + PID_OFF)
    }

    /// Claims the slot for `pid` with no valid copy.
    pub fn init(&self, mem: &mut dyn PhysMem, pid: u32) {
        mem.write_u64(self.base + PID_OFF, pid as u64);
        mem.write_u64(self.base + VALID_OFF, NO_VALID_COPY);
        mem.clwb(self.base);
        mem.sfence();
    }

    /// Releases the slot.
    pub fn clear(&self, mem: &mut dyn PhysMem) {
        mem.write_u64(self.base + PID_OFF, 0);
        mem.write_u64(self.base + VALID_OFF, NO_VALID_COPY);
        mem.clwb(self.base);
        mem.sfence();
    }

    /// Index (0/1) of the consistent copy, if any.
    pub fn valid_copy(&self, mem: &mut dyn PhysMem) -> Option<u64> {
        match mem.read_u64(self.base + VALID_OFF) {
            NO_VALID_COPY => None,
            v => Some(v & 1),
        }
    }

    /// Copy index the next checkpoint must write (the non-valid one).
    pub fn working_copy(&self, mem: &mut dyn PhysMem) -> u64 {
        match self.valid_copy(mem) {
            Some(v) => 1 - v,
            None => 0,
        }
    }

    /// Atomically publishes `copy` as the consistent one — the commit point
    /// of a checkpoint. The NVM write buffer is drained on both sides of
    /// the 8-byte flip: before, so the flip can never outrun the copy data
    /// it names; after, so the flip itself is durable when this returns.
    pub fn publish(&self, mem: &mut dyn PhysMem, copy: u64) {
        mem.persist_barrier();
        self.flip_valid_copy(mem, copy);
        mem.persist_barrier();
        // Reported after the drain: any line of this slot still pending now
        // is a write the checkpoint claims durable but never drained.
        sanitize::emit(|| Event::CheckpointPublish {
            lo: self.base.as_u64(),
            hi: self.base.as_u64() + self.slot_size,
            copy: copy & 1,
            cycle: mem.now().as_u64(),
        });
    }

    /// The 8-byte valid-copy flip — the designated NVM-mutating primitive
    /// for checkpoint commits: the static pass (KD009) requires every call
    /// to be covered by a `CheckpointPublish` sanitize event in the same
    /// function. Slot lifecycle writes (`init`/`clear`) set the field to
    /// `NO_VALID_COPY` and are not commits.
    fn flip_valid_copy(&self, mem: &mut dyn PhysMem, copy: u64) {
        mem.write_u64(self.base + VALID_OFF, copy & 1);
        mem.clwb(self.base + VALID_OFF);
    }

    /// Serializes a context into copy `copy` and flushes it.
    ///
    /// # Errors
    ///
    /// [`KindleError::RegionFull`] if the VMA table exceeds [`MAX_VMAS`].
    pub fn write_context(
        &self,
        mem: &mut dyn PhysMem,
        copy: u64,
        ctx: &SavedContext,
    ) -> Result<()> {
        if ctx.vmas.len() > MAX_VMAS {
            return Err(KindleError::RegionFull("slot vma table"));
        }
        let base = self.copy_base(copy);
        mem.write_bytes(base + REGS_OFF, &ctx.regs.to_bytes());
        mem.write_u64(base + ROOT_OFF, ctx.root.as_u64());
        mem.write_u64(base + MAPPED_OFF, ctx.mapped_pages);
        mem.write_u64(base + VMA_COUNT_OFF, ctx.vmas.len() as u64);
        for (i, v) in ctx.vmas.iter().enumerate() {
            let vb = base + VMAS_OFF + i as u64 * VMA_BYTES;
            mem.write_u64(vb, v.start.as_u64());
            mem.write_u64(vb + 8, v.end.as_u64());
            mem.write_u64(vb + 16, prot_bits(v.prot));
            mem.write_u64(vb + 24, matches!(v.kind, MemKind::Nvm) as u64);
        }
        mem.write_u64(base + COPY_CKSUM_OFF, checksum64(&context_words(ctx)));
        // Flush the written extent plus the checksum line.
        let extent = VMAS_OFF + ctx.vmas.len() as u64 * VMA_BYTES;
        let mut off = 0;
        while off < extent {
            mem.clwb(base + off);
            off += 64;
        }
        mem.clwb(base + COPY_CKSUM_OFF);
        mem.sfence();
        Ok(())
    }

    /// Deserializes copy `copy`.
    pub fn read_context(&self, mem: &mut dyn PhysMem, copy: u64) -> SavedContext {
        let base = self.copy_base(copy);
        let mut regs_bytes = [0u8; RegisterFile::BYTES];
        mem.read_bytes(base + REGS_OFF, &mut regs_bytes);
        let root = Pfn::new(mem.read_u64(base + ROOT_OFF));
        let mapped_pages = mem.read_u64(base + MAPPED_OFF);
        let count = mem.read_u64(base + VMA_COUNT_OFF).min(MAX_VMAS as u64);
        let mut vmas = Vec::with_capacity(count as usize);
        for i in 0..count {
            let vb = base + VMAS_OFF + i * VMA_BYTES;
            vmas.push(Vma {
                start: VirtAddr::new(mem.read_u64(vb)),
                end: VirtAddr::new(mem.read_u64(vb + 8)),
                prot: prot_from_bits(mem.read_u64(vb + 16)),
                kind: if mem.read_u64(vb + 24) == 1 { MemKind::Nvm } else { MemKind::Dram },
            });
        }
        SavedContext { regs: RegisterFile::from_bytes(&regs_bytes), root, mapped_pages, vmas }
    }

    /// Deserializes copy `copy`, returning `None` when its stored checksum
    /// does not match the contents (a torn or never-completed copy).
    pub fn read_context_checked(&self, mem: &mut dyn PhysMem, copy: u64) -> Option<SavedContext> {
        let ctx = self.read_context(mem, copy);
        let stored = mem.read_u64(self.copy_base(copy) + COPY_CKSUM_OFF);
        (stored == checksum64(&context_words(&ctx))).then_some(ctx)
    }

    /// Positionally diff-updates mapping-list copy `copy` against the walk
    /// sequence `entries` (sorted by vpn). Reads every stored entry
    /// (charged), writes only changed entries, and returns the number of
    /// entries written. This is the rebuild scheme's per-checkpoint cost.
    ///
    /// # Errors
    ///
    /// [`KindleError::RegionFull`] if `entries` exceeds the list capacity.
    pub fn update_mapping_list(
        &self,
        mem: &mut dyn PhysMem,
        copy: u64,
        entries: &[(Vpn, Pfn)],
        per_entry_instr: u64,
        capacity: u64,
    ) -> Result<u64> {
        if entries.len() as u64 > capacity {
            return Err(KindleError::RegionFull("mapping list"));
        }
        let base = self.list_base(copy);
        let mut written = 0u64;
        let old_count = mem.read_u64(base);
        for (i, &(vpn, pfn)) in entries.iter().enumerate() {
            let epa = base + LIST_ENTRIES_OFF + i as u64 * 16;
            mem.advance(kindle_types::Cycles::new(per_entry_instr));
            let old_vpn = mem.read_u64(epa);
            let old_pfn = mem.read_u64(epa + 8);
            if old_vpn != vpn.as_u64() || old_pfn != pfn.as_u64() || i as u64 >= old_count {
                mem.write_u64(epa, vpn.as_u64());
                mem.write_u64(epa + 8, pfn.as_u64());
                // Entries are 16 bytes and may straddle two cache lines;
                // both must reach NVM.
                mem.clwb(epa);
                if (epa + 8).line_base() != epa.line_base() {
                    mem.clwb(epa + 8);
                }
                written += 1;
            }
        }
        if old_count != entries.len() as u64 {
            mem.write_u64(base, entries.len() as u64);
            mem.clwb(base);
        }
        let cksum = checksum64(&list_words(entries));
        if mem.read_u64(base + LIST_CKSUM_OFF) != cksum {
            mem.write_u64(base + LIST_CKSUM_OFF, cksum);
            mem.clwb(base + LIST_CKSUM_OFF);
        }
        mem.sfence();
        Ok(written)
    }

    /// Reads mapping-list copy `copy` without verifying its checksum.
    pub fn read_mapping_list(&self, mem: &mut dyn PhysMem, copy: u64) -> Vec<(Vpn, Pfn)> {
        let base = self.list_base(copy);
        // Clamp a (possibly torn) count to what physically fits.
        let cap = ((self.slot_size - LIST_OFF) / 2 - LIST_ENTRIES_OFF) / 16;
        let count = mem.read_u64(base).min(cap);
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count {
            let epa = base + LIST_ENTRIES_OFF + i * 16;
            out.push((Vpn::new(mem.read_u64(epa)), Pfn::new(mem.read_u64(epa + 8))));
        }
        out
    }

    /// Reads mapping-list copy `copy`, returning `None` when the stored
    /// checksum does not match the contents.
    pub fn read_mapping_list_checked(
        &self,
        mem: &mut dyn PhysMem,
        copy: u64,
    ) -> Option<Vec<(Vpn, Pfn)>> {
        let base = self.list_base(copy);
        let raw_count = mem.read_u64(base);
        let list = self.read_mapping_list(mem, copy);
        // A count beyond capacity was clamped by the read and can never
        // re-produce the stored checksum; reject it outright.
        if raw_count != list.len() as u64 {
            return None;
        }
        let stored = mem.read_u64(base + LIST_CKSUM_OFF);
        (stored == checksum64(&list_words(&list))).then_some(list)
    }
}

/// Logical word sequence a context copy's checksum covers. Built from the
/// in-memory form so writer and (round-tripping) reader agree.
fn context_words(ctx: &SavedContext) -> Vec<u64> {
    let bytes = ctx.regs.to_bytes();
    let mut words = Vec::with_capacity(bytes.len() / 8 + 3 + ctx.vmas.len() * 4);
    for c in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        words.push(u64::from_le_bytes(w));
    }
    words.push(ctx.root.as_u64());
    words.push(ctx.mapped_pages);
    words.push(ctx.vmas.len() as u64);
    for v in &ctx.vmas {
        words.push(v.start.as_u64());
        words.push(v.end.as_u64());
        words.push(prot_bits(v.prot));
        words.push(matches!(v.kind, MemKind::Nvm) as u64);
    }
    words
}

/// Logical word sequence a mapping-list copy's checksum covers.
fn list_words(entries: &[(Vpn, Pfn)]) -> Vec<u64> {
    let mut words = Vec::with_capacity(1 + entries.len() * 2);
    words.push(entries.len() as u64);
    for &(vpn, pfn) in entries {
        words.push(vpn.as_u64());
        words.push(pfn.as_u64());
    }
    words
}

/// Persistent encoding of a VMA protection, shared by the saved context
/// and the redo log: bit 0 = readable, bit 1 = writable, taken from what
/// `p` allows. Write implies read, so `Prot::WRITE` encodes as 3.
pub(crate) fn prot_bits(p: Prot) -> u64 {
    let mut b = 0u64;
    if p.allows(kindle_types::AccessKind::Read) {
        b |= 1;
    }
    if p.allows(kindle_types::AccessKind::Write) {
        b |= 2;
    }
    b
}

/// Decodes [`prot_bits`]: any writable encoding decodes as `Prot::RW`.
pub(crate) fn prot_from_bits(b: u64) -> Prot {
    match b & 3 {
        0 => Prot::NONE,
        1 => Prot::READ,
        _ => Prot::RW,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_types::physmem::FlatMem;

    #[test]
    fn prot_encoding_is_read_bit_then_write_bit() {
        let bits = [Prot::NONE, Prot::READ, Prot::WRITE, Prot::RW].map(prot_bits);
        assert_eq!(bits, [0, 1, 3, 3], "write implies read");
        let decoded = [0, 1, 2, 3].map(prot_from_bits);
        assert_eq!(decoded, [Prot::NONE, Prot::READ, Prot::RW, Prot::RW]);
    }

    fn area() -> (FlatMem, SavedStateArea) {
        let mem = FlatMem::new(8 << 20);
        let region = Region { base: PhysAddr::new(0x10000), size: 4 << 20 };
        (mem, SavedStateArea::new(region, 4))
    }

    fn ctx() -> SavedContext {
        let mut regs = RegisterFile::new();
        regs.rip = 0x1234;
        regs.gpr[0] = 99;
        SavedContext {
            regs,
            root: Pfn::new(0x55),
            mapped_pages: 3,
            vmas: vec![Vma {
                start: VirtAddr::new(0x4000_0000),
                end: VirtAddr::new(0x4000_3000),
                prot: Prot::RW,
                kind: MemKind::Nvm,
            }],
        }
    }

    #[test]
    fn slot_allocation_and_lookup() {
        let (mut mem, area) = area();
        let i = area.find_or_alloc(&mut mem, 7).unwrap();
        let j = area.find_or_alloc(&mut mem, 9).unwrap();
        assert_ne!(i, j);
        assert_eq!(area.find(&mut mem, 7), Some(i));
        assert_eq!(area.find_or_alloc(&mut mem, 7).unwrap(), i);
        assert_eq!(area.occupied(&mut mem), vec![i, j]);
    }

    #[test]
    fn slots_exhaust() {
        let (mut mem, area) = area();
        for pid in 1..=4 {
            area.find_or_alloc(&mut mem, pid).unwrap();
        }
        assert_eq!(
            area.find_or_alloc(&mut mem, 5).unwrap_err(),
            KindleError::RegionFull("saved-state area")
        );
    }

    #[test]
    fn context_round_trip() {
        let (mut mem, area) = area();
        let i = area.find_or_alloc(&mut mem, 3).unwrap();
        let s = area.slot(i);
        let c = ctx();
        s.write_context(&mut mem, 0, &c).unwrap();
        assert_eq!(s.read_context(&mut mem, 0), c);
    }

    #[test]
    fn publish_flips_working_copy() {
        let (mut mem, area) = area();
        let i = area.find_or_alloc(&mut mem, 3).unwrap();
        let s = area.slot(i);
        assert_eq!(s.valid_copy(&mut mem), None);
        assert_eq!(s.working_copy(&mut mem), 0);
        s.publish(&mut mem, 0);
        assert_eq!(s.valid_copy(&mut mem), Some(0));
        assert_eq!(s.working_copy(&mut mem), 1);
        s.publish(&mut mem, 1);
        assert_eq!(s.valid_copy(&mut mem), Some(1));
    }

    #[test]
    fn mapping_list_diff_updates() {
        let (mut mem, area) = area();
        let i = area.find_or_alloc(&mut mem, 3).unwrap();
        let s = area.slot(i);
        let cap = area.list_capacity();
        let entries: Vec<_> =
            (0..100u64).map(|k| (Vpn::new(0x40000 + k), Pfn::new(0x1000 + k))).collect();
        let w1 = s.update_mapping_list(&mut mem, 0, &entries, 1, cap).unwrap();
        assert_eq!(w1, 100, "first pass writes everything");
        let w2 = s.update_mapping_list(&mut mem, 0, &entries, 1, cap).unwrap();
        assert_eq!(w2, 0, "unchanged list writes nothing");
        let mut changed = entries.clone();
        changed[5].1 = Pfn::new(0xdead);
        let w3 = s.update_mapping_list(&mut mem, 0, &changed, 1, cap).unwrap();
        assert_eq!(w3, 1, "one changed entry writes once");
        assert_eq!(s.read_mapping_list(&mut mem, 0), changed);
    }

    #[test]
    fn mapping_list_capacity_enforced() {
        let (mut mem, area) = area();
        let i = area.find_or_alloc(&mut mem, 3).unwrap();
        let s = area.slot(i);
        let entries: Vec<_> = (0..10u64).map(|k| (Vpn::new(k), Pfn::new(k))).collect();
        assert!(matches!(
            s.update_mapping_list(&mut mem, 0, &entries, 1, 5),
            Err(KindleError::RegionFull(_))
        ));
    }

    #[test]
    fn context_checksum_detects_corruption() {
        let (mut mem, area) = area();
        let i = area.find_or_alloc(&mut mem, 3).unwrap();
        let s = area.slot(i);
        let c = ctx();
        s.write_context(&mut mem, 0, &c).unwrap();
        assert_eq!(s.read_context_checked(&mut mem, 0), Some(c));
        // Flip one word of the serialized VMA table (a torn 8-byte persist).
        let victim = s.copy_base(0) + VMAS_OFF + 8;
        let old = mem.read_u64(victim);
        mem.write_u64(victim, old ^ 0x1000);
        assert_eq!(s.read_context_checked(&mut mem, 0), None);
    }

    #[test]
    fn mapping_list_checksum_detects_corruption() {
        let (mut mem, area) = area();
        let i = area.find_or_alloc(&mut mem, 3).unwrap();
        let s = area.slot(i);
        let cap = area.list_capacity();
        let entries: Vec<_> =
            (0..10u64).map(|k| (Vpn::new(0x40000 + k), Pfn::new(0x1000 + k))).collect();
        s.update_mapping_list(&mut mem, 0, &entries, 1, cap).unwrap();
        assert_eq!(s.read_mapping_list_checked(&mut mem, 0), Some(entries));
        let victim = s.list_base(0) + LIST_ENTRIES_OFF + 3 * 16;
        let old = mem.read_u64(victim);
        mem.write_u64(victim, old ^ 1);
        assert_eq!(s.read_mapping_list_checked(&mut mem, 0), None);
    }

    #[test]
    fn copies_are_independent() {
        let (mut mem, area) = area();
        let s = area.slot(0);
        s.init(&mut mem, 1);
        let mut c0 = ctx();
        c0.mapped_pages = 10;
        let mut c1 = ctx();
        c1.mapped_pages = 20;
        s.write_context(&mut mem, 0, &c0).unwrap();
        s.write_context(&mut mem, 1, &c1).unwrap();
        assert_eq!(s.read_context(&mut mem, 0).mapped_pages, 10);
        assert_eq!(s.read_context(&mut mem, 1).mapped_pages, 20);
    }
}
