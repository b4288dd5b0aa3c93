//! Synthetic workload generators shaped after the paper's Table II.
//!
//! | Benchmark  | Total ops  | read % | write % |
//! |------------|------------|--------|---------|
//! | Gapbs_pr   | 10,000,000 | 77     | 23      |
//! | G500_sssp  | 10,000,000 | 68     | 32      |
//! | Ycsb_mem   | 10,000,000 | 71     | 29      |
//!
//! The locality profiles are chosen per application:
//!
//! * **Gapbs_pr** (PageRank): a small, highly skewed hot set of vertex
//!   scores (most of it LLC-resident) plus a large, lightly-touched edge
//!   array — few pages ever exceed an HSCC fetch threshold.
//! * **G500_sssp**: frontier expansion touching a wide, moderately skewed
//!   distance/adjacency footprint — many warm pages, heavy migration
//!   traffic at low thresholds.
//! * **Ycsb_mem**: Zipfian key popularity over a 1 KiB-record store with a
//!   drifting hot band — counts fall steeply with threshold.

use kindle_types::rng::Rng64;

use kindle_types::{AccessKind, PAGE_SIZE};

use crate::layout::{AreaKind, MemoryLayout};
use crate::record::{AreaId, TraceRecord};
use crate::zipf::Zipf;

/// Mean inter-op gap stamped into the `period` field (ns).
const PERIOD_GAP_NS: u64 = 30;

/// Which benchmark to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// GAP benchmark suite PageRank.
    GapbsPr,
    /// Graph500 single-source shortest path.
    G500Sssp,
    /// YCSB in-memory key-value mix.
    YcsbMem,
}

impl WorkloadKind {
    /// All benchmarks, in Table II order.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::GapbsPr, WorkloadKind::G500Sssp, WorkloadKind::YcsbMem];

    /// The Table II row for this benchmark.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            WorkloadKind::GapbsPr => WorkloadSpec {
                name: "Gapbs_pr",
                total_ops: 10_000_000,
                read_pct: 77,
                write_pct: 23,
            },
            WorkloadKind::G500Sssp => WorkloadSpec {
                name: "G500_sssp",
                total_ops: 10_000_000,
                read_pct: 68,
                write_pct: 32,
            },
            WorkloadKind::YcsbMem => WorkloadSpec {
                name: "Ycsb_mem",
                total_ops: 10_000_000,
                read_pct: 71,
                write_pct: 29,
            },
        }
    }

    /// Memory layout of the benchmark's areas (all heap areas NVM-tagged,
    /// as in the paper's hybrid-memory studies).
    pub fn layout(self) -> MemoryLayout {
        let mut l = MemoryLayout::new();
        let p = PAGE_SIZE as u64;
        match self {
            WorkloadKind::GapbsPr => {
                l.add("pr_scores", AreaKind::Heap, 512 * p, true); // 2 MiB
                l.add("graph_edges", AreaKind::Heap, 131_072 * p, true); // 512 MiB
                l.add("stack.0", AreaKind::Stack, 16 * p, false);
            }
            WorkloadKind::G500Sssp => {
                l.add("dist", AreaKind::Heap, 1024 * p, true); // 4 MiB
                l.add("adj", AreaKind::Heap, 65_536 * p, true); // 256 MiB
                l.add("frontier", AreaKind::Heap, 1024 * p, true); // 4 MiB
                l.add("stack.0", AreaKind::Stack, 16 * p, false);
            }
            WorkloadKind::YcsbMem => {
                l.add("kv_store", AreaKind::Heap, 131_072 * p, true); // 512 MiB
                l.add("stack.0", AreaKind::Stack, 16 * p, false);
            }
        }
        l
    }

    /// Streaming generator of `ops` records with a fixed seed.
    pub fn stream(self, ops: u64, seed: u64) -> OpStream {
        OpStream::new(self, ops, seed)
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

impl std::str::FromStr for WorkloadKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "gapbs_pr" | "gapbs" | "pr" => Ok(WorkloadKind::GapbsPr),
            "g500_sssp" | "g500" | "sssp" => Ok(WorkloadKind::G500Sssp),
            "ycsb_mem" | "ycsb" => Ok(WorkloadKind::YcsbMem),
            other => Err(format!("unknown workload: {other}")),
        }
    }
}

/// A Table II row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Operations in the full trace.
    pub total_ops: u64,
    /// Percentage of reads.
    pub read_pct: u32,
    /// Percentage of writes.
    pub write_pct: u32,
}

/// Streaming iterator over a benchmark's trace records.
#[derive(Clone, Debug)]
pub struct OpStream {
    kind: WorkloadKind,
    i: u64,
    ops: u64,
    rng: Rng64,
    /// Hot-set sampler (scores / dist / kv records).
    hot: Zipf,
    /// Secondary sampler (edge pages / adjacency pages).
    wide: Zipf,
    /// Sequential cursor (edge streaming / frontier scans).
    cursor: u64,
    /// YCSB drifting hot-band origin (records).
    band: u64,
}

impl OpStream {
    fn new(kind: WorkloadKind, ops: u64, seed: u64) -> Self {
        let (hot, wide) = match kind {
            // 1024 score pages, strongly skewed; 131072 edge pages, skewed
            // by vertex degree.
            WorkloadKind::GapbsPr => {
                (Zipf::new(128, 1.0, seed ^ 0x5151), Zipf::new(131_072, 0.0, seed ^ 0xa3a3))
            }
            // 8192 dist pages moderately skewed; 65536 adjacency pages,
            // lightly skewed (frontiers sweep widely).
            WorkloadKind::G500Sssp => {
                (Zipf::new(128, 0.0, seed ^ 0x5151), Zipf::new(65_536, 0.0, seed ^ 0xa3a3))
            }
            // 131072 records (4 per page), classic YCSB zipfian.
            WorkloadKind::YcsbMem => {
                (Zipf::new(192, 0.4, seed ^ 0x5151), Zipf::new(131_072, 0.0, seed ^ 0xa3a3))
            }
        };
        OpStream { kind, i: 0, ops, rng: Rng64::new(seed), hot, wide, cursor: 0, band: 0 }
    }

    /// Remaining records.
    pub fn remaining(&self) -> u64 {
        self.ops - self.i
    }

    fn rec(&self, offset: u64, op: AccessKind, size: u32, area: u16) -> TraceRecord {
        TraceRecord { period: self.i * PERIOD_GAP_NS, offset, op, size, area: AreaId(area) }
    }

    fn next_gapbs(&mut self) -> TraceRecord {
        let p = PAGE_SIZE as u64;
        let roll = self.rng.gen_below(1000);
        if roll < 520 {
            // Edge read over the big array (near-uniform: frontier sweeps).
            let page = self.wide.sample() as u64;
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Read, 8, 1)
        } else if roll < 740 {
            // Hot score read (high-degree vertices).
            let page = self.hot.sample() as u64;
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Read, 8, 0)
        } else if roll < 743 {
            // Cold score read over the whole score array.
            let page = self.rng.gen_below(512);
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Read, 8, 0)
        } else if roll < 763 {
            // Stack read.
            let off = self.rng.gen_below(16 * p / 8) * 8;
            self.rec(off, AccessKind::Read, 8, 2)
        } else if roll < 765 {
            // Cold score update.
            let page = self.rng.gen_below(512);
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Write, 8, 0)
        } else {
            // Hot score update.
            let page = self.hot.sample() as u64;
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Write, 8, 0)
        }
    }

    fn next_g500(&mut self) -> TraceRecord {
        let p = PAGE_SIZE as u64;
        // The active frontier advances through the adjacency array every
        // ~300k ops; its pages are warm for a few migration intervals,
        // driving the heavy Th-5 migration traffic the paper reports.
        let frontier_base = (self.i / 300_000) * 2048 % 65_536;
        let roll = self.rng.gen_below(100);
        if roll < 18 {
            // Frontier-adjacent read (warm rotating band of 2048 pages).
            let page = frontier_base + self.rng.gen_below(2048);
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Read, 8, 1)
        } else if roll < 40 {
            // Cold adjacency read across the whole array.
            let page = self.wide.sample() as u64;
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Read, 8, 1)
        } else if roll < 62 {
            // Hot distance read.
            let page = self.hot.sample() as u64;
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Read, 8, 0)
        } else if roll < 68 {
            // Frontier sequential scan read.
            self.cursor = (self.cursor + 8) % (1024 * p);
            self.rec(self.cursor, AccessKind::Read, 8, 2)
        } else if roll < 94 {
            // Distance relaxation write (26%).
            let page = self.hot.sample() as u64;
            let off = page * p + self.rng.gen_below(512) * 8;
            self.rec(off, AccessKind::Write, 8, 0)
        } else {
            // Frontier append write (6%).
            self.cursor = (self.cursor + 8) % (1024 * p);
            self.rec(self.cursor, AccessKind::Write, 8, 2)
        }
    }

    fn next_ycsb(&mut self) -> TraceRecord {
        // Popularity tiers over the 32768-page store (131072 x 1 KiB
        // records, 4 per page):
        //   ultra-hot: 256 pages, counts far above every threshold;
        //   mid band : 64 pages drifting slowly (clears Th-25, not Th-50);
        //   warm band: 1024 pages drifting faster (clears Th-5 only);
        //   cold tail: everything else (thrashes the LLC, never migrates).
        if self.i.is_multiple_of(500_000) {
            self.band = self.rng.gen_below(524_288);
        }
        let mid_base = (self.i / 1_000_000) * 384 % 524_288;
        let roll = self.rng.gen_below(1000);
        let record = if roll < 250 {
            // Ultra-hot tier (zipf over 1024 hottest records).
            self.hot.sample() as u64 * 4 + self.rng.gen_below(4)
        } else if roll < 280 {
            // Mid tier: 384 records (96 pages), drifting slowly.
            mid_base + self.rng.gen_below(384)
        } else if roll < 480 {
            // Warm drifting band: 4096 records (1024 pages).
            (self.band + self.rng.gen_below(4096)) % 524_288
        } else if roll < 990 {
            // Cold uniform scan tail over the whole store.
            self.wide.sample() as u64 * 4 + self.rng.gen_below(4)
        } else {
            // Stack activity (1%).
            let soff = self.rng.gen_below(16 * PAGE_SIZE as u64 / 8) * 8;
            let op =
                if self.rng.gen_below(100) < 71 { AccessKind::Read } else { AccessKind::Write };
            return self.rec(soff, op, 8, 1);
        };
        // The replayed access covers 128 B of the record (two lines).
        let off = (record % 524_288) * 1024 + self.rng.gen_below(8) * 128;
        let op = if self.rng.gen_below(100) < 71 { AccessKind::Read } else { AccessKind::Write };
        self.rec(off, op, 128, 0)
    }
}

impl Iterator for OpStream {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.i >= self.ops {
            return None;
        }
        let r = match self.kind {
            WorkloadKind::GapbsPr => self.next_gapbs(),
            WorkloadKind::G500Sssp => self.next_g500(),
            WorkloadKind::YcsbMem => self.next_ycsb(),
        };
        self.i += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining() as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for OpStream {}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_fraction(kind: WorkloadKind, n: u64) -> f64 {
        let reads = kind.stream(n, 1).filter(|r| r.op == AccessKind::Read).count();
        reads as f64 / n as f64
    }

    #[test]
    fn table_ii_specs() {
        for kind in WorkloadKind::ALL {
            let s = kind.spec();
            assert_eq!(s.total_ops, 10_000_000);
            assert_eq!(s.read_pct + s.write_pct, 100);
        }
        assert_eq!(WorkloadKind::GapbsPr.spec().read_pct, 77);
        assert_eq!(WorkloadKind::G500Sssp.spec().read_pct, 68);
        assert_eq!(WorkloadKind::YcsbMem.spec().read_pct, 71);
    }

    #[test]
    fn generated_mix_matches_spec() {
        for kind in WorkloadKind::ALL {
            let want = kind.spec().read_pct as f64 / 100.0;
            let got = read_fraction(kind, 100_000);
            assert!(
                (got - want).abs() < 0.02,
                "{kind}: generated {got:.3} reads vs spec {want:.2}"
            );
        }
    }

    #[test]
    fn offsets_stay_inside_areas() {
        for kind in WorkloadKind::ALL {
            let layout = kind.layout();
            for r in kind.stream(50_000, 2) {
                let area = layout.area(r.area);
                assert!(
                    r.offset + r.size as u64 <= area.size,
                    "{kind}: offset {:#x}+{} escapes area {} ({} bytes)",
                    r.offset,
                    r.size,
                    area.name,
                    area.size
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<_> = WorkloadKind::YcsbMem.stream(1000, 7).collect();
        let b: Vec<_> = WorkloadKind::YcsbMem.stream(1000, 7).collect();
        let c: Vec<_> = WorkloadKind::YcsbMem.stream(1000, 8).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn periods_are_monotonic() {
        let mut last = 0;
        for r in WorkloadKind::GapbsPr.stream(1000, 3) {
            assert!(r.period >= last);
            last = r.period;
        }
    }

    #[test]
    fn gapbs_hot_set_is_concentrated() {
        use std::collections::BTreeMap;
        let mut per_page: BTreeMap<(u16, u64), u64> = BTreeMap::new();
        for r in WorkloadKind::GapbsPr.stream(200_000, 5) {
            *per_page.entry((r.area.0, r.offset / PAGE_SIZE as u64)).or_default() += 1;
        }
        let mut counts: Vec<u64> = per_page.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top100: u64 = counts.iter().take(100).sum();
        assert!(
            top100 as f64 / total as f64 > 0.25,
            "top-100 pages should dominate: {top100}/{total}"
        );
    }

    #[test]
    fn exact_size_iterator() {
        let mut s = WorkloadKind::G500Sssp.stream(10, 1);
        assert_eq!(s.len(), 10);
        s.next();
        assert_eq!(s.len(), 9);
    }
}
