//! Lockstep reference-model test for the NVM-line rules of
//! [`InvariantChecker`].
//!
//! `TwoMapModel` below is the rule the checker used before it kept one
//! record per line: a `pending` map (line → first write cycle since the
//! last drain, commit or crash) that every persist barrier cleared, and a
//! `last_writer` map (line → thread and sync epoch of its last write) that
//! only a commit or a crash cleared. It is kept here as the reference.
//! Both are fed the same seeded event streams over a few lines and
//! threads, and their violation logs must agree after every event.

use kindle_types::sanitize::{
    Event, InvariantChecker, Sanitizer, ThreadId, Violation, LOCK_KERNEL,
};
use kindle_types::{Rng64, PAGE_SIZE};
use std::collections::BTreeMap;

const SEED: u64 = 0x5a71_0022;
const THREADS: u32 = 3;
const BASE: u64 = 0x10_0000;
/// Pages the streams write, from `BASE` up.
const PAGES: u64 = 4;
/// The lines written in each page: its first, last and two between, so a
/// stream's 16 lines span page boundaries.
const SLOTS: [u64; 4] = [0, 1, 37, 63];

/// The two-map undrained-publish and race rules.
#[derive(Default)]
struct TwoMapModel {
    log: Vec<Violation>,
    pending: BTreeMap<u64, u64>,
    last_writer: BTreeMap<u64, (ThreadId, u64)>,
    sync_epoch: u64,
}

impl TwoMapModel {
    fn on_event(&mut self, tid: ThreadId, ev: &Event) {
        match *ev {
            Event::NvmWrite { line, cycle } => {
                self.pending.entry(line).or_insert(cycle);
                if let Some(&(first, epoch)) = self.last_writer.get(&line) {
                    if first != tid && epoch == self.sync_epoch {
                        self.log.push(Violation::RacyNvmWrite { line, first, second: tid, cycle });
                    }
                }
                self.last_writer.insert(line, (tid, self.sync_epoch));
            }
            Event::NvmCommit { line } => {
                self.pending.remove(&line);
                self.last_writer.remove(&line);
            }
            Event::NvmDrain { .. } => {
                self.pending.clear();
                self.sync_epoch += 1;
            }
            Event::Crash => {
                self.pending.clear();
                self.last_writer.clear();
                self.sync_epoch = 0;
            }
            Event::CheckpointPublish { lo, hi, cycle, .. } => {
                for (&line, &written_at) in self.pending.range(lo..hi) {
                    self.log.push(Violation::UndrainedCheckpoint {
                        line,
                        written_at,
                        published_at: cycle,
                    });
                }
            }
            Event::LockAcquire { .. } | Event::LockRelease { .. } => self.sync_epoch += 1,
            _ => {}
        }
    }
}

/// Draws one event. `tid` is the running thread, which a `ThreadSwitch`
/// moves; `cycle` only grows.
fn draw(rng: &mut Rng64, tid: &mut ThreadId, cycle: &mut u64) -> Event {
    *cycle += 1 + rng.gen_below(8);
    let line = |rng: &mut Rng64| {
        let page = BASE + rng.gen_below(PAGES) * PAGE_SIZE as u64;
        page + SLOTS[rng.gen_below(SLOTS.len() as u64) as usize] * 64
    };
    match rng.gen_below(100) {
        0..=39 => Event::NvmWrite { line: line(rng), cycle: *cycle },
        40..=54 => Event::NvmCommit { line: line(rng) },
        55..=61 => Event::NvmDrain { cycle: *cycle },
        62..=65 => Event::LockAcquire { id: LOCK_KERNEL },
        66..=69 => Event::LockRelease { id: LOCK_KERNEL },
        70..=84 => {
            let from = *tid;
            *tid = ThreadId(rng.gen_below(u64::from(THREADS)) as u32);
            Event::ThreadSwitch { from, to: *tid, cycle: *cycle }
        }
        85..=86 => Event::Crash,
        _ => {
            // Slot bounds on any line boundary of the pages, so a slot
            // may start or end inside a page, be empty or cover them all.
            let lines = PAGES * PAGE_SIZE as u64 / 64;
            let a = BASE + rng.gen_below(lines + 1) * 64;
            let b = BASE + rng.gen_below(lines + 1) * 64;
            let copy = rng.gen_below(2);
            Event::CheckpointPublish { lo: a.min(b), hi: a.max(b), copy, cycle: *cycle }
        }
    }
}

/// The per-line checker and the two-map model agree on every violation,
/// event by event, over seeded streams that exercise both NVM rules.
#[test]
fn per_line_record_matches_two_map_model() {
    let mut rng = Rng64::new(SEED);
    let (mut racy, mut undrained) = (0, 0);
    for stream in 0..64 {
        let checker = InvariantChecker::new();
        let log = checker.log();
        let mut checker: Box<dyn Sanitizer> = Box::new(checker);
        let mut model = TwoMapModel::default();
        let (mut tid, mut cycle) = (ThreadId::MAIN, 0);
        for step in 0..2_000 {
            let ev = draw(&mut rng, &mut tid, &mut cycle);
            checker.on_event(tid, &ev);
            model.on_event(tid, &ev);
            assert_eq!(
                log.snapshot(),
                model.log,
                "stream {stream}, step {step}, {tid} {ev:?}, seed {SEED:#x}"
            );
        }
        for v in &model.log {
            match v {
                Violation::RacyNvmWrite { .. } => racy += 1,
                Violation::UndrainedCheckpoint { .. } => undrained += 1,
                _ => {}
            }
        }
    }
    assert!(racy > 0, "the streams must produce RacyNvmWrite");
    assert!(undrained > 0, "the streams must produce UndrainedCheckpoint");
}
