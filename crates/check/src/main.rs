//! `kindle-check` — the workspace's domain lint.
//!
//! Walks every Rust source file and `Cargo.toml` in the workspace and
//! enforces the determinism / persistence rules described in `rules` and
//! `manifest` (KD003, KD005, KD006, KD009, KD010, KD012, KD013). Violations
//! print as `path:line: KDnnn message` and make the process exit non-zero;
//! a site is suppressed only by an inline `// check:allow KDnnn: reason`
//! comment (see `allow`).
//!
//! Usage: `cargo run -p kindle-check [-- [root] [--json <path>]]`
//!
//! * `root` — explicit workspace root (default: inferred from the crate's
//!   own location).
//! * `--json <path>` — also write the diagnostics as a JSON artifact in
//!   the bench envelope convention (`elapsed_ms` + `rows`), uploaded by
//!   the CI lint job so rule trends are diffable across runs.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use kindle_check::diag::{self, Diagnostic};
use kindle_check::{allow, manifest, rules};

const USAGE: &str = "usage: kindle-check [root] [--json <path>]";

/// Directories never descended into. `fixtures` holds the check crate's
/// seeded-violation corpus — real rule hits by design, exercised by the
/// golden test, never lint findings against the tree.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Parsed command line.
struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { root: None, json: None };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                let path = it.next().ok_or("--json requires a path")?;
                args.json = Some(PathBuf::from(path));
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            root if args.root.is_none() => args.root = Some(PathBuf::from(root)),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    Ok(args)
}

/// Recursively collects `.rs` files and `Cargo.toml` manifests, sorted so
/// output order is stable across filesystems.
fn walk(dir: &Path, rs: &mut Vec<PathBuf>, manifests: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, rs, manifests);
            }
        } else if name.ends_with(".rs") {
            rs.push(path);
        } else if name == "Cargo.toml" {
            manifests.push(path);
        }
    }
}

/// Workspace-relative path with `/` separators.
fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Crate directory name for files under `crates/<name>/...`.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

fn default_root() -> PathBuf {
    // crates/check/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kindle-check: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = args.root.unwrap_or_else(default_root);
    if !root.join("Cargo.toml").is_file() {
        eprintln!("kindle-check: {} does not look like a workspace root", root.display());
        return ExitCode::FAILURE;
    }

    let mut rs_files = Vec::new();
    let mut manifests = Vec::new();
    walk(&root, &mut rs_files, &mut manifests);

    // Findings that no inline allow comment suppresses.
    let mut kept: Vec<Diagnostic> = Vec::new();
    let mut record = |found: Vec<Diagnostic>, source: &str| {
        kept.extend(found.into_iter().filter(|d| !allow::inline_allowed(d, source)));
    };

    for path in &rs_files {
        let rel = rel_of(&root, path);
        let Ok(source) = fs::read_to_string(path) else {
            eprintln!("kindle-check: unreadable file {rel}");
            return ExitCode::FAILURE;
        };
        record(rules::check_source(&rel, crate_of(&rel), &source), &source);
    }
    for path in &manifests {
        let rel = rel_of(&root, path);
        let Ok(source) = fs::read_to_string(path) else {
            eprintln!("kindle-check: unreadable file {rel}");
            return ExitCode::FAILURE;
        };
        record(manifest::check_manifest(&rel, &source), &source);
    }

    for d in &kept {
        println!("{d}");
    }
    eprintln!(
        "kindle-check: scanned {} source files, {} manifests; {} violation(s)",
        rs_files.len(),
        manifests.len(),
        kept.len()
    );

    if let Some(path) = &args.json {
        // Same envelope shape the bench binaries write (elapsed_ms + rows),
        // so CI artifact tooling can treat lint and bench outputs alike.
        // Wall-clock time is confined to this host-side field (the check
        // crate sits outside the simulation, like bench).
        let data = format!(
            "{{\n\"elapsed_ms\": {},\n\"files\": {},\n\"manifests\": {},\n\
             \"violations\": {},\n\"rows\": {}\n}}\n",
            started.elapsed().as_millis(),
            rs_files.len(),
            manifests.len(),
            kept.len(),
            diag::to_json(&kept)
        );
        match fs::write(path, data) {
            Ok(()) => eprintln!("kindle-check: wrote {}", path.display()),
            Err(e) => {
                eprintln!("kindle-check: json write failed for {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if kept.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
