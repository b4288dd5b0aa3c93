//! Model test of the flat undo store, [`UndoTable`], against an ordered
//! map: first-write-wins inserts, removes, pending-set retains, clears and
//! sorted drains, under enough store/commit churn to compact the record
//! list many times. Snapshots are all zero (stored as a sentinel, with no
//! image) about half the time; the rest are random or zero except for
//! their first or last byte, the edges of the zero test.

use std::collections::BTreeMap;

use kindle_mem::store::{LineSnap, UndoTable};
use kindle_types::Rng64;

const BASE: u64 = 1 << 30;
/// Distinct NVM lines the ops touch: few enough that lines are re-dirtied
/// after commit, which is what leaves tombstones behind.
const LINES: u64 = 192;

fn snapshot(rng: &mut Rng64) -> LineSnap {
    let mut snap = [0u8; 64];
    match rng.gen_below(8) {
        0..=3 => {}
        4 => snap[0] = 1 + rng.gen_below(255) as u8,
        5 => snap[63] = 1 + rng.gen_below(255) as u8,
        _ => snap.iter_mut().for_each(|b| *b = rng.gen_below(256) as u8),
    }
    snap
}

fn line(rng: &mut Rng64) -> u64 {
    BASE + 64 * rng.gen_below(LINES)
}

#[test]
fn undo_table_matches_an_ordered_map() {
    let mut rng = Rng64::new(0x7e57_0014);
    let mut table = UndoTable::with_base(BASE);
    let mut model: BTreeMap<u64, LineSnap> = BTreeMap::new();
    let mut compactions = 0;
    for op in 0..40_000u32 {
        let records = table.footprint().0;
        match rng.gen_below(100) {
            // A store dirties a line: first write wins.
            0..=54 => {
                let (line, snap) = (line(&mut rng), snapshot(&mut rng));
                let images = table.footprint().1;
                let fresh = !model.contains_key(&line);
                table.insert_absent(line, snap);
                model.entry(line).or_insert(snap);
                // Only a first, non-zero snapshot stores an image. An insert
                // that compacted first leaves only live records, so the
                // images are then exactly the model's non-zero snapshots.
                let (now, stored) = table.footprint();
                let want = if fresh && now <= records {
                    model.values().filter(|s| **s != [0; 64]).count()
                } else {
                    images + usize::from(fresh && snap != [0; 64])
                };
                assert_eq!(stored, want, "op {op}: images after inserting {line:#x}");
            }
            // A write-back commits one line (sometimes a DRAM line below
            // the NVM base, which is never present).
            55..=89 => {
                let line =
                    if rng.gen_below(16) == 0 { 64 * rng.gen_below(8) } else { line(&mut rng) };
                assert_eq!(table.remove(line), model.remove(&line), "op {op}: remove {line:#x}");
            }
            // The write buffer drained some lines.
            90..=95 => {
                let pending: Vec<u64> = (0..rng.gen_below(48)).map(|_| line(&mut rng)).collect();
                table.retain_pending(&pending);
                model.retain(|l, _| pending.contains(l));
            }
            96..=97 => {
                table.clear();
                model.clear();
            }
            _ => {
                let drained = table.drain_sorted();
                let want: Vec<(u64, LineSnap)> = std::mem::take(&mut model).into_iter().collect();
                assert_eq!(drained, want, "op {op}: drain");
            }
        }
        assert_eq!(table.len(), model.len(), "op {op}: len");
        for &line in model.keys().take(4) {
            assert!(table.contains(line), "op {op}: contains {line:#x}");
        }
        let (after, images) = table.footprint();
        assert!(images <= after, "op {op}: {images} images for {after} records");
        if after < records && !table.is_empty() {
            compactions += 1;
        }
    }
    assert!(compactions >= 5, "churn compacted the record list only {compactions} times");
    let drained = table.drain_sorted();
    assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
}
