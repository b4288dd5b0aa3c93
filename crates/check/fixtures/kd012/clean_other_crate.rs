//@path crates/os/src/frames.rs
// Ordered maps outside crates/mem are the *recommended* deterministic
// collection (clippy pushes HashMap users here); KD012 must stay silent.
use std::collections::BTreeMap;

pub fn count(m: &BTreeMap<u64, u64>) -> usize {
    // Mentions in comments inside mem files are equally invisible:
    // a BTreeSet spelled here proves nothing either way.
    m.len()
}
