//! The NVM redo log of OS metadata modifications.
//!
//! Fixed-size records (tag + pid + 4 payload words + checksum = 56 bytes)
//! appended with `clwb` + fence. The checkpoint engine drains the log into
//! the working context copy and truncates it; the log head lives in the
//! first line of the region so truncation is a single durable store.
//!
//! The trailing checksum word (FNV-1a over the first six words) is how
//! crash recovery detects a *torn* tail record: with 8-byte atomic persist
//! granularity, a power cut mid-append — or a cut that persisted the head
//! bump but lost record words still sitting in the NVM write buffer — can
//! leave a record partially written. Replay stops at the first record whose
//! checksum fails; everything before it is intact by construction.

use kindle_os::MetaRecord;
use kindle_os::Region;
use kindle_types::sanitize::{self, Event};
use kindle_types::{
    checksum64, KindleError, MemKind, Pfn, PhysAddr, PhysMem, Result, VirtAddr, Vpn,
};

use crate::slot::{prot_bits, prot_from_bits};

const HEADER_BYTES: u64 = 64;
const RECORD_BYTES: u64 = 56;
/// Payload words per record (excluding the checksum).
const PAYLOAD_WORDS: usize = 6;

const TAG_PROCESS_CREATE: u64 = 1;
const TAG_VMA_ADD: u64 = 2;
const TAG_VMA_REMOVE: u64 = 3;
const TAG_VMA_PROTECT: u64 = 4;
const TAG_PAGE_MAPPED: u64 = 5;
const TAG_PAGE_UNMAPPED: u64 = 6;
const TAG_REGS_UPDATED: u64 = 7;

/// A record as stored in the log (mirror of [`MetaRecord`]).
pub type LogRecord = MetaRecord;

/// The redo log ring (bounded; callers checkpoint-and-truncate on overflow).
#[derive(Clone, Copy, Debug)]
pub struct RedoLog {
    region: Region,
    capacity: u64,
}

impl RedoLog {
    /// Wraps `region` as a log.
    pub fn new(region: Region) -> Self {
        let capacity = (region.size - HEADER_BYTES) / RECORD_BYTES;
        RedoLog { region, capacity }
    }

    /// Maximum records before overflow.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Records currently in the log.
    pub fn len(&self, mem: &mut dyn PhysMem) -> u64 {
        mem.read_u64(self.region.base)
    }

    /// True if the log holds no records.
    pub fn is_empty(&self, mem: &mut dyn PhysMem) -> bool {
        self.len(mem) == 0
    }

    fn record_pa(&self, idx: u64) -> PhysAddr {
        self.region.base + HEADER_BYTES + idx * RECORD_BYTES
    }

    /// Durably stores the record-count head word (write + clwb + fence).
    /// This is the designated NVM-mutating primitive for log growth: the
    /// static pass (KD009) requires every call to be covered by a
    /// `LogAppend` sanitize event in the same function.
    fn bump_log_head(&self, mem: &mut dyn PhysMem, head: u64) {
        mem.write_u64(self.region.base, head);
        mem.clwb(self.region.base);
        mem.sfence();
    }

    /// Durably zeroes the head word (truncation). The designated primitive
    /// for log truncation, covered by a `LogTruncate` event (KD009).
    fn reset_log_head(&self, mem: &mut dyn PhysMem) {
        mem.write_u64(self.region.base, 0);
        mem.clwb(self.region.base);
        mem.sfence();
    }

    /// Appends one record durably.
    ///
    /// # Errors
    ///
    /// [`KindleError::RegionFull`] when the log is full — the caller should
    /// checkpoint immediately and retry.
    pub fn append(&self, mem: &mut dyn PhysMem, rec: &MetaRecord) -> Result<()> {
        let head = self.len(mem);
        if head >= self.capacity {
            return Err(KindleError::RegionFull("redo log"));
        }
        sanitize::emit(|| Event::LockAcquire { id: sanitize::LOCK_REDO_LOG });
        let pa = self.record_pa(head);
        let payload = encode(rec);
        for (i, w) in payload.iter().enumerate() {
            mem.write_u64(pa + i as u64 * 8, *w);
        }
        mem.write_u64(pa + PAYLOAD_WORDS as u64 * 8, checksum64(&payload));
        // 56-byte records can straddle two cache lines.
        mem.clwb(pa);
        if (pa + (RECORD_BYTES - 8)).line_base() != pa.line_base() {
            mem.clwb(pa + (RECORD_BYTES - 8));
        }
        mem.sfence();
        self.bump_log_head(mem, head + 1);
        sanitize::emit(|| Event::LogAppend { seq: head });
        sanitize::emit(|| Event::LockRelease { id: sanitize::LOCK_REDO_LOG });
        Ok(())
    }

    /// Reads every record (charged reads), oldest first. Replay stops at
    /// the first checksum-invalid (torn) record — see [`read_valid`].
    ///
    /// [`read_valid`]: Self::read_valid
    pub fn read_all(&self, mem: &mut dyn PhysMem) -> Vec<MetaRecord> {
        self.read_valid(mem).0
    }

    /// Reads the valid prefix of the log, oldest first, returning the
    /// records plus the number of *torn* records dropped: once a record's
    /// checksum fails, it and everything after it (written later, so at
    /// most as durable) are discarded.
    pub fn read_valid(&self, mem: &mut dyn PhysMem) -> (Vec<MetaRecord>, u64) {
        sanitize::emit(|| Event::LockAcquire { id: sanitize::LOCK_REDO_LOG });
        let n = self.len(mem);
        let mut out = Vec::with_capacity(n as usize);
        for i in 0..n {
            let pa = self.record_pa(i);
            let mut words = [0u64; PAYLOAD_WORDS];
            for (k, w) in words.iter_mut().enumerate() {
                *w = mem.read_u64(pa + k as u64 * 8);
            }
            let stored = mem.read_u64(pa + PAYLOAD_WORDS as u64 * 8);
            if stored != checksum64(&words) {
                sanitize::emit(|| Event::LockRelease { id: sanitize::LOCK_REDO_LOG });
                return (out, n - i);
            }
            sanitize::emit(|| Event::LogApply { seq: i });
            if let Some(rec) = decode(&words) {
                out.push(rec);
            }
        }
        sanitize::emit(|| Event::LockRelease { id: sanitize::LOCK_REDO_LOG });
        (out, 0)
    }

    /// Durably truncates the log (end of a checkpoint).
    pub fn truncate(&self, mem: &mut dyn PhysMem) {
        sanitize::emit(|| Event::LockAcquire { id: sanitize::LOCK_REDO_LOG });
        self.reset_log_head(mem);
        sanitize::emit(|| Event::LogTruncate);
        sanitize::emit(|| Event::LockRelease { id: sanitize::LOCK_REDO_LOG });
    }
}

fn encode(rec: &MetaRecord) -> [u64; 6] {
    match *rec {
        MetaRecord::ProcessCreate { pid } => [TAG_PROCESS_CREATE, pid as u64, 0, 0, 0, 0],
        MetaRecord::VmaAdd { pid, start, end, prot, kind } => [
            TAG_VMA_ADD,
            pid as u64,
            start.as_u64(),
            end.as_u64(),
            prot_bits(prot),
            matches!(kind, MemKind::Nvm) as u64,
        ],
        MetaRecord::VmaRemove { pid, start, end } => {
            [TAG_VMA_REMOVE, pid as u64, start.as_u64(), end.as_u64(), 0, 0]
        }
        MetaRecord::VmaProtect { pid, start, end, prot } => {
            [TAG_VMA_PROTECT, pid as u64, start.as_u64(), end.as_u64(), prot_bits(prot), 0]
        }
        MetaRecord::PageMapped { pid, vpn, pfn, kind } => [
            TAG_PAGE_MAPPED,
            pid as u64,
            vpn.as_u64(),
            pfn.as_u64(),
            matches!(kind, MemKind::Nvm) as u64,
            0,
        ],
        MetaRecord::PageUnmapped { pid, vpn, pfn } => {
            [TAG_PAGE_UNMAPPED, pid as u64, vpn.as_u64(), pfn.as_u64(), 0, 0]
        }
        MetaRecord::RegsUpdated { pid } => [TAG_REGS_UPDATED, pid as u64, 0, 0, 0, 0],
    }
}

fn decode(words: &[u64; 6]) -> Option<MetaRecord> {
    let pid = words[1] as u32;
    Some(match words[0] {
        TAG_PROCESS_CREATE => MetaRecord::ProcessCreate { pid },
        TAG_VMA_ADD => MetaRecord::VmaAdd {
            pid,
            start: VirtAddr::new(words[2]),
            end: VirtAddr::new(words[3]),
            prot: prot_from_bits(words[4]),
            kind: if words[5] == 1 { MemKind::Nvm } else { MemKind::Dram },
        },
        TAG_VMA_REMOVE => MetaRecord::VmaRemove {
            pid,
            start: VirtAddr::new(words[2]),
            end: VirtAddr::new(words[3]),
        },
        TAG_VMA_PROTECT => MetaRecord::VmaProtect {
            pid,
            start: VirtAddr::new(words[2]),
            end: VirtAddr::new(words[3]),
            prot: prot_from_bits(words[4]),
        },
        TAG_PAGE_MAPPED => MetaRecord::PageMapped {
            pid,
            vpn: Vpn::new(words[2]),
            pfn: Pfn::new(words[3]),
            kind: if words[4] == 1 { MemKind::Nvm } else { MemKind::Dram },
        },
        TAG_PAGE_UNMAPPED => {
            MetaRecord::PageUnmapped { pid, vpn: Vpn::new(words[2]), pfn: Pfn::new(words[3]) }
        }
        TAG_REGS_UPDATED => MetaRecord::RegsUpdated { pid },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_types::physmem::FlatMem;
    use kindle_types::Prot;

    fn log() -> (FlatMem, RedoLog) {
        let mem = FlatMem::new(1 << 20);
        let region = Region { base: PhysAddr::new(0x8000), size: 64 * 1024 };
        (mem, RedoLog::new(region))
    }

    fn sample_records() -> Vec<MetaRecord> {
        vec![
            MetaRecord::ProcessCreate { pid: 1 },
            MetaRecord::VmaAdd {
                pid: 1,
                start: VirtAddr::new(0x4000_0000),
                end: VirtAddr::new(0x4001_0000),
                prot: Prot::RW,
                kind: MemKind::Nvm,
            },
            MetaRecord::PageMapped {
                pid: 1,
                vpn: Vpn::new(0x40000),
                pfn: Pfn::new(0xc0001),
                kind: MemKind::Nvm,
            },
            MetaRecord::VmaProtect {
                pid: 1,
                start: VirtAddr::new(0x4000_0000),
                end: VirtAddr::new(0x4000_1000),
                prot: Prot::READ,
            },
            MetaRecord::PageUnmapped { pid: 1, vpn: Vpn::new(0x40001), pfn: Pfn::new(0xc0002) },
            MetaRecord::VmaRemove {
                pid: 1,
                start: VirtAddr::new(0x4000_0000),
                end: VirtAddr::new(0x4001_0000),
            },
            MetaRecord::RegsUpdated { pid: 1 },
        ]
    }

    #[test]
    fn append_read_round_trip() {
        let (mut mem, log) = log();
        let recs = sample_records();
        for r in &recs {
            log.append(&mut mem, r).unwrap();
        }
        assert_eq!(log.len(&mut mem), recs.len() as u64);
        assert_eq!(log.read_all(&mut mem), recs);
    }

    #[test]
    fn truncate_empties() {
        let (mut mem, log) = log();
        log.append(&mut mem, &MetaRecord::ProcessCreate { pid: 2 }).unwrap();
        assert!(!log.is_empty(&mut mem));
        log.truncate(&mut mem);
        assert!(log.is_empty(&mut mem));
        assert!(log.read_all(&mut mem).is_empty());
    }

    #[test]
    fn append_at_exact_capacity_fills_then_rejects() {
        let mut mem = FlatMem::new(1 << 20);
        let region = Region { base: PhysAddr::new(0x8000), size: HEADER_BYTES + 3 * RECORD_BYTES };
        let log = RedoLog::new(region);
        assert_eq!(log.capacity(), 3);
        for pid in 0..3 {
            log.append(&mut mem, &MetaRecord::ProcessCreate { pid }).unwrap();
        }
        assert_eq!(log.len(&mut mem), 3, "the last slot is usable");
        assert_eq!(
            log.append(&mut mem, &MetaRecord::RegsUpdated { pid: 9 }).unwrap_err(),
            KindleError::RegionFull("redo log")
        );
        // The failed append must not have clobbered anything.
        let (recs, torn) = log.read_valid(&mut mem);
        assert_eq!(torn, 0);
        assert_eq!(recs, (0..3).map(|pid| MetaRecord::ProcessCreate { pid }).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_record_is_dropped_with_its_successors() {
        let (mut mem, log) = log();
        let recs = sample_records();
        for r in &recs {
            log.append(&mut mem, r).unwrap();
        }
        // Tear one payload word of the third record, as an 8-byte-atomic
        // power cut would: its checksum fails, so it and every later
        // record (at most as durable) must be discarded.
        let torn_idx = 2u64;
        let pa = log.record_pa(torn_idx) + 16;
        let old = mem.read_u64(pa);
        mem.write_u64(pa, old ^ 0xdead);
        let (valid, torn) = log.read_valid(&mut mem);
        assert_eq!(valid, recs[..torn_idx as usize]);
        assert_eq!(torn, recs.len() as u64 - torn_idx);
        assert_eq!(log.read_all(&mut mem), recs[..torn_idx as usize]);
    }

    #[test]
    fn truncate_then_append_reuses_slots() {
        let (mut mem, log) = log();
        for r in &sample_records() {
            log.append(&mut mem, r).unwrap();
        }
        log.truncate(&mut mem);
        // New records overwrite the old slots from index 0; stale bytes
        // beyond the new head must stay invisible.
        let fresh = vec![MetaRecord::ProcessCreate { pid: 7 }, MetaRecord::RegsUpdated { pid: 7 }];
        for r in &fresh {
            log.append(&mut mem, r).unwrap();
        }
        assert_eq!(log.len(&mut mem), 2);
        let (valid, torn) = log.read_valid(&mut mem);
        assert_eq!(valid, fresh);
        assert_eq!(torn, 0);
    }

    #[test]
    fn overflow_reports_region_full() {
        let mem = FlatMem::new(1 << 20);
        let region = Region { base: PhysAddr::new(0), size: HEADER_BYTES + 2 * RECORD_BYTES };
        let log = RedoLog::new(region);
        let mut mem = mem;
        assert_eq!(log.capacity(), 2);
        log.append(&mut mem, &MetaRecord::RegsUpdated { pid: 1 }).unwrap();
        log.append(&mut mem, &MetaRecord::RegsUpdated { pid: 1 }).unwrap();
        assert_eq!(
            log.append(&mut mem, &MetaRecord::RegsUpdated { pid: 1 }).unwrap_err(),
            KindleError::RegionFull("redo log")
        );
    }
}
