//@path crates/mem/src/store.rs
// No crates/mem source file is exempt: an ordered-map store anywhere in
// the memory controller, the flat stores' own module included, fires.
use std::collections::{BTreeMap, BTreeSet};

pub struct Pages {
    pages: BTreeMap<u64, Box<[u8; 4096]>>,
}

pub fn pending(lines: &BTreeSet<u64>) -> usize {
    lines.len()
}
