//! Golden-diff self-test for the fixture corpus.
//!
//! Every file under `fixtures/kd*/` is run through the real rule
//! pipeline — [`kindle_check::rules::check_source`] for Rust,
//! [`kindle_check::manifest::check_manifest`] for TOML — using the
//! workspace path named by the fixture's first-line `@path` directive,
//! so crate scoping behaves exactly as on the real tree. The resulting
//! `(file, line, rule)` hits must match `fixtures/golden.txt`.

use std::fs;
use std::path::Path;

use kindle_check::{manifest, rules};

/// Reads the `//@path ` / `#@path ` directive off a fixture's first line.
fn directive_path(fixture: &Path, source: &str, marker: &str) -> String {
    let first = source.lines().next().unwrap_or_default();
    first
        .strip_prefix(marker)
        .unwrap_or_else(|| {
            panic!("{}: fixture must start with `{marker}<workspace path>`", fixture.display())
        })
        .trim()
        .to_string()
}

/// The crate directory name for a `crates/<name>/...` path.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

#[test]
fn fixtures_match_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut dirs: Vec<_> = fs::read_dir(&root)
        .expect("fixtures/ directory")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    assert!(!dirs.is_empty(), "fixture corpus is empty");

    let mut actual = Vec::new();
    for dir in &dirs {
        let dirname = dir.file_name().unwrap().to_string_lossy().into_owned();
        let mut files: Vec<_> = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
        files.sort();
        for file in files {
            let name = file.file_name().unwrap().to_string_lossy().into_owned();
            let source = fs::read_to_string(&file).unwrap();
            let diags = match file.extension().and_then(|e| e.to_str()) {
                Some("rs") => {
                    let rel = directive_path(&file, &source, "//@path ");
                    rules::check_source(&rel, crate_of(&rel), &source)
                }
                Some("toml") => {
                    let rel = directive_path(&file, &source, "#@path ");
                    manifest::check_manifest(&rel, &source)
                }
                _ => continue,
            };
            for d in diags {
                actual.push(format!("{dirname}/{name}:{} {}", d.line, d.rule));
            }
        }
    }
    actual.sort();

    let golden = fs::read_to_string(root.join("golden.txt")).expect("fixtures/golden.txt");
    let mut expected: Vec<String> = golden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    expected.sort();

    assert_eq!(
        actual.join("\n"),
        expected.join("\n"),
        "fixture hits diverge from fixtures/golden.txt (left = actual, right = golden)"
    );
}

/// Every rule the engine implements has a seeded fixture that actually
/// fires — so a rule can never be silently disabled.
#[test]
fn every_rule_has_a_firing_fixture() {
    let golden = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join("golden.txt"),
    )
    .unwrap();
    for rule in ["KD003", "KD005", "KD006", "KD009", "KD010", "KD012", "KD013"] {
        assert!(
            golden.lines().any(|l| l.ends_with(rule)),
            "no seeded fixture hit recorded for {rule}"
        );
    }
}
