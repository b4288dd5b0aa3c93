//! Property tests for the shared vocabulary types.
//!
//! Each test draws its cases from a fixed-seed [`Rng64`] and names the
//! case index and seed in every assertion, so a failure replays by
//! rerunning the test.

use kindle_types::pte::pte_addr;
use kindle_types::{physmem::touched_lines, Cycles, Pfn, PhysAddr, Pte, Rng64, VirtAddr};

const SEED: u64 = 0x7e57_0001;
const CASES: u64 = 256;

#[test]
fn page_decomposition_reconstructs() {
    let mut rng = Rng64::new(SEED);
    for case in 0..CASES {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let addr = rng.gen_below(1 << 48);
        let va = VirtAddr::new(addr);
        assert_eq!(
            va.page_base().as_u64() + va.page_offset(),
            addr,
            "{ctx}: base + offset must equal the address"
        );
        assert_eq!(va.page_number().base(), va.page_base(), "{ctx}");
    }
}

#[test]
fn line_decomposition_reconstructs() {
    let mut rng = Rng64::new(SEED);
    for case in 0..CASES {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let addr = rng.gen_below(1 << 48);
        let pa = PhysAddr::new(addr);
        assert!(pa.line_base() <= pa, "{ctx}");
        assert!(pa - pa.line_base() < 64, "{ctx}");
        assert_eq!(pa.line_in_page(), ((addr % 4096) / 64) as usize, "{ctx}");
    }
}

#[test]
fn pt_indices_reconstruct_vpn() {
    let mut rng = Rng64::new(SEED);
    for case in 0..CASES {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let va = VirtAddr::new(rng.gen_below(1 << 48));
        let rebuilt = (((((va.pt_index(4) as u64) << 9 | va.pt_index(3) as u64) << 9)
            | va.pt_index(2) as u64)
            << 9)
            | va.pt_index(1) as u64;
        assert_eq!(rebuilt, va.page_number().as_u64(), "{ctx}");
    }
}

#[test]
fn cycles_nanos_round_trip() {
    let mut rng = Rng64::new(SEED);
    for case in 0..CASES {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let ns = rng.gen_below(1 << 40);
        assert_eq!(Cycles::from_nanos(ns).as_nanos(), ns, "{ctx}");
    }
}

#[test]
fn pte_fields_are_independent() {
    let mut rng = Rng64::new(SEED);
    for case in 0..CASES {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let pfn = rng.gen_below(1 << 40);
        let count = rng.gen_below(1024);
        let flags = rng.gen_below(4);
        let flag_bits = ((flags & 1) * Pte::WRITABLE) | (((flags >> 1) & 1) * Pte::NVM);
        let pte = Pte::new(Pfn::new(pfn), flag_bits).with_access_count(count);
        assert_eq!(pte.pfn(), Pfn::new(pfn), "{ctx}");
        assert_eq!(pte.access_count(), count, "{ctx}");
        assert_eq!(pte.is_writable(), flags & 1 == 1, "{ctx}");
        assert!(pte.is_present(), "{ctx}");
        // Changing the count never disturbs the pfn and vice versa.
        let pte2 = pte.with_access_count(1023 - count).with_pfn(Pfn::new(pfn ^ 1));
        assert_eq!(pte2.access_count(), 1023 - count, "{ctx}");
        assert_eq!(pte2.pfn(), Pfn::new(pfn ^ 1), "{ctx}");
        assert_eq!(pte2.is_writable(), flags & 1 == 1, "{ctx}");
    }
}

#[test]
fn touched_lines_matches_naive() {
    let mut rng = Rng64::new(SEED);
    for case in 0..CASES {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let start = rng.gen_below(100_000);
        let len = rng.gen_below(4096) as usize;
        let naive: std::collections::BTreeSet<u64> =
            (start..start + len as u64).map(|a| a / 64).collect();
        assert_eq!(touched_lines(PhysAddr::new(start), len), naive.len(), "{ctx}");
    }
}

#[test]
fn pte_addr_stays_inside_table() {
    let mut rng = Rng64::new(SEED);
    for case in 0..CASES {
        let ctx = format!("case {case}, seed {SEED:#x}");
        let table = Pfn::new(rng.gen_below(1 << 30));
        let va = VirtAddr::new(rng.gen_below(1 << 48));
        let level = rng.gen_range(1, 5) as u8;
        let pa = pte_addr(table, va, level);
        let base = table.base();
        assert!(pa >= base, "{ctx}");
        assert!(pa - base < 4096, "{ctx}");
        assert_eq!((pa - base) % 8, 0, "{ctx}: entries are 8-byte aligned");
    }
}
