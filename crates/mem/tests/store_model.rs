//! Property test of the memory controller's store path against a byte
//! model.
//!
//! Random `(offset, len)` stores land on a DRAM and an NVM window, across
//! line and page boundaries, with a media-fault model (ECP-covered and
//! uncorrectable stuck cells) and a power switch armed. Commits, write
//! drains, device writes and a mid-run power cut are interleaved. The
//! model tracks what loads must see, what each NVM line last made durable
//! and what the write buffer last drained. Before the crash, patrol must
//! flag exactly the over-budget lines whose stuck cells changed the data
//! their last store meant to write. After a plain or a torn crash,
//! DRAM must read zero, every NVM line must hold its durable value (word by
//! word, old or new, when torn), and patrol must find every stuck-free
//! frame whose lines all kept their durable value clean.

use std::collections::{BTreeMap, BTreeSet};

use kindle_mem::{MediaFaultConfig, MemConfig, MemoryController, PatrolOutcome, PowerSwitch};
use kindle_types::{AccessKind, Cycles, MemKind, PhysAddr, Rng64, PAGE_SIZE};

const PAGES: usize = 3;
const WINDOW: usize = PAGES * PAGE_SIZE;
const LINES: usize = WINDOW / 64;
/// ECP entries per line: lines with at most this many stuck cells store
/// faithfully, lines with more force every cell's value.
const ECP: u32 = 2;

/// Stuck cells placed in the NVM window: `(line index, bit, value)`. Page
/// 0 has none, page 1 has lines ECP covers, page 2 has one line with
/// more cells than the budget.
fn stuck_cells(rng: &mut Rng64) -> Vec<(usize, u32, bool)> {
    let mut cells = Vec::new();
    for (line, n) in [(64 + 3, 1), (64 + 17, 2), (64 + 40, 1), (128 + 9, 3), (128 + 50, 1)] {
        for _ in 0..n {
            cells.push((line, rng.gen_below(512) as u32, rng.gen_below(2) == 1));
        }
    }
    cells
}

/// Line indices whose stuck cells exceed the ECP budget.
fn exhausted(cells: &[(usize, u32, bool)]) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for &(line, _, _) in cells {
        if cells.iter().filter(|c| c.0 == line).count() > ECP as usize {
            out.insert(line);
        }
    }
    out
}

/// Random store payload: zero-filled (the kernel's zero-fill case), one
/// repeated byte, or random bytes.
fn payload(rng: &mut Rng64, len: usize) -> Vec<u8> {
    match rng.gen_below(3) {
        0 => vec![0; len],
        1 => vec![rng.gen_below(256) as u8; len],
        _ => (0..len).map(|_| rng.gen_below(256) as u8).collect(),
    }
}

fn line_of(buf: &[u8], line: usize) -> &[u8] {
    &buf[line * 64..line * 64 + 64]
}

/// The model of the NVM window.
struct Nvm {
    /// What loads see.
    image: Vec<u8>,
    /// Each line's value as of its last commit.
    committed: Vec<u8>,
    /// Each line's committed value as of the last write-buffer drain.
    drained: Vec<u8>,
    /// Lines stored since their last commit.
    dirty: BTreeSet<usize>,
    /// The bytes the last store meant an over-budget line to hold, before
    /// its stuck cells forced their values.
    intended: BTreeMap<usize, Vec<u8>>,
    /// Power cut latched: nothing becomes durable any more.
    cut: bool,
}

impl Nvm {
    fn commit(&mut self, line: usize) {
        if !self.cut && self.dirty.remove(&line) {
            let r = line * 64..line * 64 + 64;
            self.committed[r.clone()].copy_from_slice(&self.image[r]);
        }
    }
}

fn run(seed: u64, torn: bool) {
    let mut rng = Rng64::new(seed);
    let mut cfg = MemConfig::with_capacities(16 << 20, 16 << 20);
    cfg.faults = Some(MediaFaultConfig {
        stuck_cells: 0,
        wear_limit: 40,
        correction_entries: ECP,
        ..MediaFaultConfig::with_seed(seed)
    });
    // The DRAM window starts mid-page so stores straddle its pages too.
    let dram = PhysAddr::new(0x10800);
    let nvm = cfg.layout.range(MemKind::Nvm).base + 0x10000;
    let mut m = MemoryController::new(&cfg);
    let switch = PowerSwitch::new();
    m.arm_power_cut(switch.clone());

    let cells = stuck_cells(&mut rng);
    let dead = exhausted(&cells);
    let media = m.media_mut().expect("fault model armed");
    for &(line, bit, val) in &cells {
        assert!(media.add_stuck_cell(nvm.as_u64() + 64 * line as u64, bit, val));
    }

    let mut dram_model = vec![0u8; WINDOW];
    let mut model = Nvm {
        image: vec![0; WINDOW],
        committed: vec![0; WINDOW],
        drained: vec![0; WINDOW],
        dirty: BTreeSet::new(),
        intended: BTreeMap::new(),
        cut: false,
    };
    let mut now = Cycles::ZERO;
    let cut_at = 150 + rng.gen_below(300);
    for op in 0..400u64 {
        if op == cut_at {
            switch.cut();
            // A cut latches at the next operation that checks the switch.
            m.commit_line(nvm);
            model.cut = true;
        }
        now += Cycles::from_nanos(rng.gen_below(400));
        let roll = rng.gen_below(100);
        if roll < 55 {
            let off = rng.gen_below(WINDOW as u64) as usize;
            let max = match rng.gen_below(3) {
                0 => 8,
                1 => 160,
                _ => 2 * PAGE_SIZE,
            };
            let len = 1 + rng.gen_below(max.min(WINDOW - off) as u64) as usize;
            let data = payload(&mut rng, len);
            if rng.gen_below(4) == 0 {
                m.store_bytes(dram + off as u64, &data, Cycles::ZERO);
                dram_model[off..off + len].copy_from_slice(&data);
                continue;
            }
            m.store_bytes(nvm + off as u64, &data, Cycles::ZERO);
            model.image[off..off + len].copy_from_slice(&data);
            for line in off / 64..=(off + len - 1) / 64 {
                model.dirty.insert(line);
                if dead.contains(&line) {
                    model.intended.insert(line, line_of(&model.image, line).to_vec());
                    for &(l, bit, val) in cells.iter().filter(|c| c.0 == line) {
                        let byte = &mut model.image[l * 64 + bit as usize / 8];
                        let mask = 1u8 << (bit % 8);
                        *byte = if val { *byte | mask } else { *byte & !mask };
                    }
                }
            }
        } else if roll < 75 {
            let line = rng.gen_below(LINES as u64) as usize;
            m.commit_line(nvm + 64 * line as u64);
            model.commit(line);
        } else if roll < 78 {
            m.commit_all();
            for line in model.dirty.clone() {
                model.commit(line);
            }
        } else if roll < 88 {
            let line = rng.gen_below(LINES as u64);
            m.access(nvm + 64 * line, AccessKind::Write, now);
        } else if roll < 91 {
            m.nvm_drain_latency(now);
            if !model.cut {
                model.drained.copy_from_slice(&model.committed);
            }
        } else {
            let off = rng.gen_below(WINDOW as u64) as usize;
            let len = 1 + rng.gen_below((WINDOW - off) as u64) as usize;
            let mut buf = vec![0u8; len];
            m.load_bytes(nvm + off as u64, &mut buf);
            assert_eq!(buf, model.image[off..off + len], "seed {seed}: NVM load at {off}+{len}");
            m.load_bytes(dram + off as u64, &mut buf);
            assert_eq!(buf, dram_model[off..off + len], "seed {seed}: DRAM load at {off}+{len}");
        }
    }
    let mut buf = vec![0u8; WINDOW];
    m.load_bytes(nvm, &mut buf);
    assert_eq!(buf, model.image, "seed {seed}: NVM image before the crash");
    assert_eq!(m.volatile_nvm_lines(), model.dirty.len(), "seed {seed}: undo entries");
    // Patrol verifies each line against the checksum of what its last
    // store meant it to hold: only an over-budget line whose stuck cells
    // changed that data mismatches, and nothing can heal it.
    for page in 0..PAGES {
        let bad: Vec<u64> = (page * 64..page * 64 + 64)
            .filter(|l| model.intended.get(l).is_some_and(|want| want != line_of(&buf, *l)))
            .map(|l| nvm.as_u64() + 64 * l as u64)
            .collect();
        let want = if bad.is_empty() {
            PatrolOutcome::Clean
        } else {
            PatrolOutcome::Uncorrectable { lines: bad }
        };
        assert_eq!(m.patrol_frame(nvm.as_u64() + (page * PAGE_SIZE) as u64), want, "seed {seed}");
    }

    if torn {
        m.crash_torn(&mut Rng64::new(seed ^ 0x7047));
    } else {
        m.crash();
        assert_eq!(m.stats().nvm_lines_lost_on_crash, model.dirty.len() as u64);
    }
    m.load_bytes(dram, &mut buf);
    assert!(buf.iter().all(|&b| b == 0), "seed {seed}: DRAM survives no crash");
    m.load_bytes(nvm, &mut buf);
    for line in 0..LINES {
        let (got, new, old) =
            (line_of(&buf, line), line_of(&model.committed, line), line_of(&model.drained, line));
        if !torn {
            assert_eq!(got, new, "seed {seed}: line {line} must roll back to its commit");
            continue;
        }
        for w in 0..8 {
            let word = &got[w * 8..w * 8 + 8];
            assert!(
                word == &new[w * 8..w * 8 + 8] || word == &old[w * 8..w * 8 + 8],
                "seed {seed}: line {line} word {w} is neither committed nor drained"
            );
        }
    }
    for page in 0..PAGES {
        let lines = page * 64..page * 64 + 64;
        let durable = lines.clone().all(|l| line_of(&buf, l) == line_of(&model.committed, l));
        if durable && !lines.clone().any(|l| dead.contains(&l)) {
            assert_eq!(
                m.patrol_frame(nvm.as_u64() + (page * PAGE_SIZE) as u64),
                PatrolOutcome::Clean,
                "seed {seed}: page {page} holds its durable data"
            );
        }
    }
}

#[test]
fn random_stores_match_the_model_across_a_crash() {
    for seed in 0..24 {
        run(seed, false);
    }
}

#[test]
fn random_stores_match_the_model_across_a_torn_crash() {
    for seed in 0..24 {
        run(seed, true);
    }
}
