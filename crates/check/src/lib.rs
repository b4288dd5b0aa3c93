//! Library surface of `kindle-check`, the workspace's domain lint.
//!
//! The pipeline is `lexer` (token stream) → `syntax` (brace-matched
//! block tree, function extraction, test cut) → `rules` (KD003, KD006,
//! KD009, KD010, KD012 and KD013 on tokens and per-function walks) plus
//! `manifest` (KD005 on `Cargo.toml`s) and `allow` (inline `check:allow`
//! suppression). The `kindle-check` binary drives it over the workspace;
//! the fixture golden test (`tests/golden.rs`) drives it over seeded
//! corpora. The name bans clippy resolves better live in the root
//! `clippy.toml` and the crate roots' lint levels (DESIGN.md §13).

pub mod allow;
pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod syntax;
