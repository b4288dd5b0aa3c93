//! Property tests for the preparation component.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use kindle_trace::{Driver, TraceImage, TraceRecord, WorkloadKind, Zipf};
use kindle_types::{AccessKind, Rng64};

const SEED: u64 = 0x7e57_0009;

/// A workload drawn uniformly from Table II's three.
fn arb_kind(rng: &mut Rng64) -> WorkloadKind {
    WorkloadKind::ALL[rng.gen_below(3) as usize]
}

/// Every generated record stays inside its declared area and matches
/// Table II's read fraction within tolerance — for arbitrary seeds.
#[test]
fn streams_well_formed() {
    let mut rng = Rng64::new(SEED);
    for case in 0..16 {
        let kind = arb_kind(&mut rng);
        let seed = rng.next_u64();
        let ctx = format!("case {case}, seed {SEED:#x}: {kind} stream seed {seed:#x}");
        let layout = kind.layout();
        let ops = 20_000u64;
        let mut reads = 0u64;
        for r in kind.stream(ops, seed) {
            let area = layout.area(r.area);
            assert!(r.offset + r.size as u64 <= area.size, "{ctx}");
            if r.op == AccessKind::Read {
                reads += 1;
            }
        }
        let frac = reads as f64 / ops as f64;
        let want = kind.spec().read_pct as f64 / 100.0;
        assert!((frac - want).abs() < 0.03, "{ctx}: read fraction {frac} vs {want}");
    }
}

/// Image serialisation round-trips for arbitrary traces.
#[test]
fn image_round_trips() {
    let mut rng = Rng64::new(SEED);
    for case in 0..16 {
        let kind = arb_kind(&mut rng);
        let seed = rng.next_u64();
        let ops = rng.gen_range(1, 3000);
        let ctx = format!("case {case}, seed {SEED:#x}: {kind} trace seed {seed:#x}, {ops} ops");
        let (_, image) = Driver::new(seed).trace(kind, ops);
        let restored = TraceImage::from_bytes(&image.to_bytes()).unwrap();
        assert_eq!(&restored, &image, "{ctx}");
        assert_eq!(restored.records().len() as u64, ops, "{ctx}");
    }
}

/// Record packing round-trips arbitrary field values.
#[test]
fn record_round_trips() {
    let mut rng = Rng64::new(SEED);
    for case in 0..256 {
        let r = TraceRecord {
            period: rng.next_u64(),
            offset: rng.next_u64(),
            size: rng.next_u64() as u32,
            op: if rng.gen_below(2) == 1 { AccessKind::Write } else { AccessKind::Read },
            area: kindle_trace::AreaId(rng.next_u64() as u16),
        };
        assert_eq!(TraceRecord::from_bytes(&r.to_bytes()), r, "case {case}, seed {SEED:#x}");
    }
}

/// Zipf samples stay in range and lower ranks are (weakly) more likely
/// for any exponent.
#[test]
fn zipf_in_range_and_skewed() {
    let mut rng = Rng64::new(SEED);
    for case in 0..32 {
        let n = rng.gen_range(2, 5000) as usize;
        let s = rng.next_f64() * 2.5;
        let seed = rng.next_u64();
        let ctx = format!("case {case}, seed {SEED:#x}: n {n}, s {s}, zipf seed {seed:#x}");
        let mut z = Zipf::new(n, s, seed);
        let mut head = 0u64;
        let samples = 2000;
        for _ in 0..samples {
            let x = z.sample();
            assert!(x < n, "{ctx}: sample {x}");
            if x < n / 2 {
                head += 1;
            }
        }
        // The first half must receive at least its uniform share (minus
        // statistical slack).
        assert!(head as f64 >= samples as f64 * 0.40, "{ctx}: head {head}/{samples}");
    }
}
