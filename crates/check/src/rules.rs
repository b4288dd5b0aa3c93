//! The domain lint rules, applied to the token stream and block tree of
//! each Rust source file (see [`crate::lexer`] and [`crate::syntax`]).
//!
//! | Rule  | What it enforces                                                 |
//! |-------|------------------------------------------------------------------|
//! | KD003 | no truncating `as u8/u16/u32` casts in statements handling address/cycle values outside `crates/types` |
//! | KD006 | no raw `+`/`-` arithmetic inside `Cycles::new(..)` outside `crates/types` |
//! | KD009 | NVM-mutating primitives in `mem`/`os`/`persist` emit their sanitize event on every path, or sit inside a checkpoint bracket |
//! | KD010 | `LockAcquire`/`LockRelease` emissions balance per `LOCK_*` id on all paths, early exits included |
//! | KD012 | no `BTreeMap`/`BTreeSet` in any `crates/mem` source file (flat tables only) |
//! | KD013 | no direct `NvmConfig` latency/endurance field access outside the `crates/mem` backend modules (go through the `Backend` methods) |
//!
//! (KD005, the external-dependency rule, lives in [`crate::manifest`].)
//! The bans on wall clocks, hash-ordered collections, host threads,
//! thread-locals, panicking stubs and kernel unwraps resolve paths rather
//! than names, so clippy enforces them (root `clippy.toml` and the lint
//! levels at each crate root).
//!
//! Because the rules see tokens, string literals and comments can never
//! produce a finding, and multi-line expressions are analyzed natively.
//! Everything from the first `#[cfg(test)]` attribute to end of file is
//! test code and exempt, as are files under a `tests/` directory. See
//! [`crate::allow`] for the two suppression mechanisms.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};
use crate::syntax::{self, Block, Function, Node};

/// Simulation crates, whose lock events KD010 balances. `check` (this
/// tool) and `bench` (host-side measurement harnesses) are deliberately
/// outside the simulation.
pub fn is_sim_crate(krate: &str) -> bool {
    !matches!(krate, "check" | "bench")
}

/// Crates whose NVM-mutating primitives are under KD009's event-coverage
/// discipline: the memory controller, the kernel, and the persistence
/// layer — exactly the layers whose writes the sanitizer replays.
pub fn is_nvm_discipline_crate(krate: &str) -> bool {
    matches!(krate, "mem" | "os" | "persist")
}

/// `NvmConfig` latency/endurance fields whose direct access is banned
/// outside the backend modules (KD013). Every other layer reads timing
/// through the `Backend` methods (`read_latency_ns`, `write_latency_ns`,
/// `fault_model`), so a far-tier swap can never be bypassed by a caller
/// assuming PCM's raw numbers.
const NVM_FIELD_BAN: &[&str] =
    &["read_ns", "write_service_ns", "buffer_insert_ns", "forward_ns", "wear_limit"];

/// The modules allowed to touch those fields directly (KD013): the
/// backend definitions and the two consumers that turn timings into
/// device behavior.
const NVM_FIELD_ALLOW: &[&str] =
    &["crates/mem/src/backend.rs", "crates/mem/src/controller.rs", "crates/mem/src/nvm.rs"];

/// Identifiers that mark a statement as handling addresses or simulated
/// time (KD003). Compared case-insensitively against identifier tokens.
const ADDR_CYCLE_WORDS: &[&str] =
    &["addr", "pa", "pfn", "vpn", "va", "cycle", "cycles", "line", "offset", "as_u64"];

/// Target widths of the truncating casts KD003 looks for.
const TRUNCATING_WIDTHS: &[&str] = &["u8", "u16", "u32"];

/// KD009's primitive table: a call to `name(..)` mutates NVM-visible
/// state and must be covered by one of the listed sanitize events in the
/// same function (or by a checkpoint bracket / the kernel lock). The
/// names are the *designated* mutation points — KD009 is what keeps
/// refactors from quietly adding an uncovered one.
const NVM_PRIMITIVES: &[(&str, &[&str])] = &[
    ("store_leaf", &["PteInstall", "PteClear"]),
    ("set_frame_bit", &["FrameAlloc", "FrameFree", "FrameRetired"]),
    ("bump_log_head", &["LogAppend"]),
    ("reset_log_head", &["LogTruncate"]),
    ("flip_valid_copy", &["CheckpointPublish"]),
    ("page_mut", &["NvmWrite", "ScrubCorrect", "ScrubDetect", "PatrolCorrect"]),
    ("resident_page_mut", &["NvmWrite", "ScrubCorrect", "ScrubDetect", "PatrolCorrect"]),
    ("record_line_checksum", &["NvmWrite", "PatrolCorrect"]),
];

/// Checkpoint-bracket markers recognized by KD009: primitives between a
/// `*_start`/`*_begin` and its matching end are covered by the bracket's
/// own publish/rollback protocol rather than per-call events.
const BRACKET_OPEN: &[&str] = &["checkpoint_start", "fase_begin"];
const BRACKET_CLOSE: &[&str] = &["checkpoint_end", "fase_end"];

/// True when `t` matches `pat`: an identifier spelled `pat`, or the
/// single punctuation character `pat`.
fn tok_is(t: &Token<'_>, pat: &str) -> bool {
    match t.kind {
        TokenKind::Ident => t.text == pat,
        TokenKind::Punct => t.text == pat,
        _ => false,
    }
}

/// True when `tokens[i..]` starts with the given ident/punct sequence.
fn seq_at(tokens: &[Token<'_>], i: usize, pat: &[&str]) -> bool {
    pat.len() <= tokens.len().saturating_sub(i)
        && pat.iter().enumerate().all(|(k, p)| tok_is(&tokens[i + k], p))
}

/// True when the `?` at `i` is the try operator, not a `?Sized` bound.
fn is_try_operator(tokens: &[Token<'_>], i: usize) -> bool {
    tokens[i].is_punct('?') && !tokens.get(i + 1).is_some_and(|t| t.is_ident("Sized"))
}

/// Runs all source rules over one Rust file.
///
/// `rel_path` is the workspace-relative path (used for scoping and in
/// diagnostics); `krate` is the crate directory name under `crates/`, or
/// `None` for workspace-root sources (examples, integration tests).
pub fn check_source(rel_path: &str, krate: Option<&str>, source: &str) -> Vec<Diagnostic> {
    if rel_path.split('/').any(|c| c == "tests") {
        return Vec::new();
    }
    let mut tokens = lex(source);
    tokens.truncate(syntax::test_cut(&tokens));

    let sim = krate.map(is_sim_crate).unwrap_or(false);
    let types_crate = krate == Some("types");
    let nvm_discipline = krate.map(is_nvm_discipline_crate).unwrap_or(false);
    // KD012: the memory controller is hot-path throughout and must use the
    // direct-indexed flat tables. A `BTreeMap` reintroduced in any of its
    // files is a performance regression the type system cannot catch.
    let mem_hot = rel_path.starts_with("crates/mem/");
    let nvm_fields_banned = !NVM_FIELD_ALLOW.contains(&rel_path);

    let mut out = Vec::new();
    flat_rules(rel_path, types_crate, mem_hot, nvm_fields_banned, &tokens, &mut out);

    if sim || nvm_discipline {
        let root = syntax::parse(&tokens);
        for f in syntax::functions(&root) {
            if sim {
                kd010_function(rel_path, &f, &mut out);
            }
            if nvm_discipline {
                kd009_function(rel_path, &f, &mut out);
            }
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// The token-window rules: everything that needs no per-function
/// control-flow, just the (test-truncated) stream.
fn flat_rules(
    rel_path: &str,
    types_crate: bool,
    mem_hot: bool,
    nvm_fields_banned: bool,
    tokens: &[Token<'_>],
    out: &mut Vec<Diagnostic>,
) {
    // One diagnostic per (rule, line), however many tokens hit on it.
    let mut lines: BTreeMap<&'static str, BTreeSet<usize>> = BTreeMap::new();
    let mut hit = |rule: &'static str, line: usize| {
        lines.entry(rule).or_default().insert(line);
    };

    for (i, t) in tokens.iter().enumerate() {
        if !types_crate && seq_at(tokens, i, &["Cycles", ":", ":", "new", "("]) {
            if let Some(line) = cycles_new_arithmetic(tokens, i + 5) {
                hit("KD006", line);
            }
        }
        if mem_hot && (t.is_ident("BTreeMap") || t.is_ident("BTreeSet")) {
            hit("KD012", t.line);
        }
        if nvm_fields_banned
            && t.is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| NVM_FIELD_BAN.iter().any(|w| n.is_ident(w)))
        {
            hit("KD013", tokens[i + 1].line);
        }
    }

    if !types_crate {
        kd003_statements(tokens, &mut |line| {
            lines.entry("KD003").or_default().insert(line);
        });
    }

    for (rule, rule_lines) in lines {
        for line in rule_lines {
            out.push(Diagnostic::new(rel_path, line, rule, message_of(rule)));
        }
    }
}

/// Scans a `Cycles::new(` argument list (starting just past the open
/// paren) for raw `+`/`-`; returns the line of the first one. `->` in a
/// closure annotation is not arithmetic.
fn cycles_new_arithmetic(tokens: &[Token<'_>], mut i: usize) -> Option<usize> {
    let mut depth = 1usize;
    while i < tokens.len() && depth > 0 {
        let t = &tokens[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        } else if t.is_punct('+')
            || (t.is_punct('-') && !tokens.get(i + 1).is_some_and(|n| n.is_punct('>')))
        {
            return Some(t.line);
        }
        i += 1;
    }
    None
}

/// KD003, statement-scoped: splits the stream into runs at `;`/`{`/`}`
/// and flags a truncating `as u8/u16/u32` cast whose statement also
/// names an address/cycle identifier. Statement scoping is what lets a
/// cast see its operand across line breaks while an unrelated
/// neighboring statement's `pfn` cannot contaminate it.
fn kd003_statements(tokens: &[Token<'_>], hit: &mut impl FnMut(usize)) {
    let mut start = 0usize;
    for i in 0..=tokens.len() {
        let boundary = i == tokens.len()
            || tokens[i].is_punct(';')
            || tokens[i].is_punct('{')
            || tokens[i].is_punct('}');
        if !boundary {
            continue;
        }
        let run = &tokens[start..i];
        start = i + 1;
        let mentions = run.iter().any(|t| {
            t.kind == TokenKind::Ident
                && ADDR_CYCLE_WORDS.iter().any(|w| t.text.eq_ignore_ascii_case(w))
        });
        if !mentions {
            continue;
        }
        for (k, t) in run.iter().enumerate() {
            if t.is_ident("as")
                && run.get(k + 1).is_some_and(|n| TRUNCATING_WIDTHS.iter().any(|w| n.is_ident(w)))
            {
                hit(t.line);
            }
        }
    }
}

/// Canonical message per rule id.
fn message_of(rule: &str) -> &'static str {
    match rule {
        "KD003" => {
            "truncating cast on an address/cycle value outside crates/types; \
             widths are owned by the newtypes"
        }
        "KD006" => {
            "raw +/- inside Cycles::new(..); build each term as Cycles and \
             combine the newtypes so the saturation policy applies"
        }
        "KD012" => {
            "ordered map in the memory controller's hot path; use the \
             direct-indexed flat tables (crates/mem/src/store.rs)"
        }
        "KD013" => {
            "direct NvmConfig latency/endurance field access outside the \
             crates/mem backend modules; read timing through the \
             Backend methods (read_latency_ns, write_latency_ns, \
             fault_model) so every far tier keeps its own semantics"
        }
        _ => "violation",
    }
}

// ---------------------------------------------------------------------------
// KD010 — lock-event balance on all paths.
// ---------------------------------------------------------------------------

/// Extracts the lock id named by an `Event::LockAcquire { id: ... }`
/// struct literal. Returns the last identifier/number of the `id:` field
/// value (`sanitize::LOCK_KERNEL` -> `LOCK_KERNEL`). Returns `None` for
/// match *patterns* (`{ .. }`, `{ id }`), which are reads, not emissions.
fn lock_id_of<'a>(lit: &Block<'a>) -> Option<&'a str> {
    let toks: Vec<&Token<'a>> = lit
        .nodes
        .iter()
        .filter_map(|n| match n {
            Node::Tok(t) => Some(t),
            Node::Block(_) => None,
        })
        .collect();
    let at = toks.iter().position(|t| t.is_ident("id"))?;
    if !toks.get(at + 1).is_some_and(|t| t.is_punct(':')) {
        return None;
    }
    let mut last = None;
    for t in &toks[at + 2..] {
        if t.is_punct(',') {
            break;
        }
        if matches!(t.kind, TokenKind::Ident | TokenKind::Num) {
            last = Some(t.text);
        }
    }
    last
}

/// True when every path through `b` leaves the enclosing flow (a
/// top-level `return`/`break`/`continue`), so code after the block only
/// runs when the block was *not* entered.
fn block_is_terminal(b: &Block<'_>) -> bool {
    b.nodes.iter().any(|n| match n {
        Node::Tok(t) => t.is_ident("return") || t.is_ident("break") || t.is_ident("continue"),
        Node::Block(_) => false,
    })
}

/// KD010 for one function: walk the block tree keeping the multiset of
/// held lock ids; flag early exits with locks held, releases without
/// acquires, blocks whose two sides disagree, and fall-through with
/// locks still held.
fn kd010_function(rel_path: &str, f: &Function<'_>, out: &mut Vec<Diagnostic>) {
    let mut held: Vec<&str> = Vec::new();
    kd010_block(rel_path, f.body, &mut held, out);
    for id in &held {
        out.push(Diagnostic::new(
            rel_path,
            f.body.close_line,
            "KD010",
            &format!(
                "LockAcquire({id}) in `{}` has no LockRelease on the fall-through path; \
                 an unbalanced lock event corrupts the race detector's epoch ordering",
                f.name
            ),
        ));
    }
}

fn kd010_block<'a>(
    rel_path: &str,
    block: &'a Block<'a>,
    held: &mut Vec<&'a str>,
    out: &mut Vec<Diagnostic>,
) {
    let nested: BTreeSet<usize> =
        syntax::fn_body_indices(&block.nodes).into_iter().map(|(i, _, _)| i).collect();
    let mut i = 0usize;
    while i < block.nodes.len() {
        match &block.nodes[i] {
            Node::Tok(t) => {
                // An emission: Event::Lock{Acquire,Release} followed by a
                // struct literal naming the id.
                if t.is_ident("Event") && node_seq(block, i + 1, &[":", ":"]) {
                    if let Some(Node::Tok(name)) = block.nodes.get(i + 3) {
                        let acquire = name.is_ident("LockAcquire");
                        let release = name.is_ident("LockRelease");
                        if acquire || release {
                            if let Some(Node::Block(lit)) = block.nodes.get(i + 4) {
                                if let Some(id) = lock_id_of(lit) {
                                    if acquire {
                                        held.push(id);
                                    } else if let Some(pos) = held.iter().rposition(|h| *h == id) {
                                        held.remove(pos);
                                    } else {
                                        out.push(Diagnostic::new(
                                            rel_path,
                                            name.line,
                                            "KD010",
                                            &format!(
                                                "LockRelease({id}) without a LockAcquire on \
                                                 this path"
                                            ),
                                        ));
                                    }
                                }
                                i += 5;
                                continue;
                            }
                        }
                    }
                }
                // Early exits must not hold any lock.
                let exits = (t.is_punct('?') && is_try_node(&block.nodes, i))
                    || t.is_ident("return")
                    || t.is_ident("break");
                if exits && !held.is_empty() {
                    out.push(Diagnostic::new(
                        rel_path,
                        t.line,
                        "KD010",
                        &format!(
                            "early exit with lock(s) [{}] still held; release before the \
                             `{}` or hoist the exit out of the locked region",
                            held.join(", "),
                            t.text
                        ),
                    ));
                }
            }
            Node::Block(b) => {
                if !nested.contains(&i) {
                    let before = held.clone();
                    kd010_block(rel_path, b, held, out);
                    if block_is_terminal(b) {
                        // The fall-through path did not run this block.
                        *held = before;
                    } else if *held != before {
                        out.push(Diagnostic::new(
                            rel_path,
                            b.close_line,
                            "KD010",
                            "lock events unbalanced across a conditional block: the \
                             acquire/release happens on only one side",
                        ));
                        *held = before;
                    }
                }
            }
        }
        i += 1;
    }
}

/// True when the `?` token at node `i` is the try operator (not `?Sized`).
fn is_try_node(nodes: &[Node<'_>], i: usize) -> bool {
    !matches!(nodes.get(i + 1), Some(Node::Tok(t)) if t.is_ident("Sized"))
}

/// True when the token nodes at `block.nodes[i..]` match the sequence.
fn node_seq(block: &Block<'_>, i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| matches!(block.nodes.get(i + k), Some(Node::Tok(t)) if tok_is(t, p)))
}

// ---------------------------------------------------------------------------
// KD009 — sanitize-event coverage for NVM-mutating primitives.
// ---------------------------------------------------------------------------

/// Flattens a function body to a linear token list, keeping `{`/`}` as
/// punctuation and skipping nested fn bodies (they are analyzed as their
/// own functions).
fn flatten<'a>(block: &'a Block<'a>, out: &mut Vec<Token<'a>>) {
    let nested: BTreeSet<usize> =
        syntax::fn_body_indices(&block.nodes).into_iter().map(|(i, _, _)| i).collect();
    for (i, node) in block.nodes.iter().enumerate() {
        match node {
            Node::Tok(t) => out.push(*t),
            Node::Block(b) => {
                if nested.contains(&i) {
                    continue;
                }
                out.push(Token { kind: TokenKind::Punct, text: "{", line: b.open_line });
                flatten(b, out);
                out.push(Token { kind: TokenKind::Punct, text: "}", line: b.close_line });
            }
        }
    }
}

/// KD009 for one function: a linear walk tracking, per primitive, how
/// many covering events have been emitted (credits) and which primitive
/// calls are still uncovered (pending). An emission covers pending calls
/// of its class or banks a credit for a later call — so `emit-then-write`
/// and `write-then-emit` orderings both pass, while a path that exits
/// with an uncovered write is flagged. Calls under a checkpoint bracket
/// or with the kernel lock held are covered by those protocols instead.
fn kd009_function(rel_path: &str, f: &Function<'_>, out: &mut Vec<Diagnostic>) {
    let mut toks = Vec::new();
    flatten(f.body, &mut toks);

    let mut pending: Vec<(usize, &'static str)> = Vec::new();
    let mut credit: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut bracket_depth = 0usize;
    let mut kernel_locked = false;

    let events_of = |prim: &str| -> String {
        NVM_PRIMITIVES
            .iter()
            .find(|(p, _)| *p == prim)
            .map(|(_, evs)| evs.join("/"))
            .unwrap_or_default()
    };
    let flag = |line: usize, prim: &str, out: &mut Vec<Diagnostic>| {
        out.push(Diagnostic::new(
            rel_path,
            line,
            "KD009",
            &format!(
                "`{prim}(..)` mutates NVM-visible state but no {} event covers it on this \
                 path; emit the sanitize event or bracket the call in \
                 checkpoint_start/checkpoint_end",
                events_of(prim)
            ),
        ));
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident {
            if BRACKET_OPEN.contains(&t.text) {
                bracket_depth += 1;
            } else if BRACKET_CLOSE.contains(&t.text) {
                bracket_depth = bracket_depth.saturating_sub(1);
            } else if t.text == "Event" && seq_at(&toks, i + 1, &[":", ":"]) {
                if let Some(name) = toks.get(i + 3).filter(|n| n.kind == TokenKind::Ident) {
                    match name.text {
                        "LockAcquire" | "LockRelease" => {
                            if literal_names_kernel_lock(&toks, i + 4) {
                                kernel_locked = name.text == "LockAcquire";
                            }
                        }
                        ev => {
                            for &(prim, events) in NVM_PRIMITIVES {
                                if events.contains(&ev) {
                                    let before = pending.len();
                                    pending.retain(|&(_, p)| p != prim);
                                    if pending.len() == before {
                                        *credit.entry(prim).or_insert(0) += 1;
                                    }
                                }
                            }
                        }
                    }
                    i += 4;
                    continue;
                }
            } else if let Some(&(prim, _)) = NVM_PRIMITIVES.iter().find(|(p, _)| t.text == *p) {
                let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && !(i > 0 && toks[i - 1].is_ident("fn"));
                if is_call && bracket_depth == 0 && !kernel_locked {
                    let c = credit.entry(prim).or_insert(0);
                    if *c > 0 {
                        *c -= 1;
                    } else {
                        pending.push((t.line, prim));
                    }
                }
            } else if (t.text == "return" || t.text == "break") && !pending.is_empty() {
                for (_, prim) in pending.drain(..) {
                    flag(t.line, prim, out);
                }
            }
        } else if t.is_punct('?') && is_try_operator(&toks, i) && !pending.is_empty() {
            for (_, prim) in pending.drain(..) {
                flag(t.line, prim, out);
            }
        }
        i += 1;
    }
    for (line, prim) in pending {
        flag(line, prim, out);
    }
}

/// True when the struct literal starting at `toks[i]` (a `{`) names
/// `LOCK_KERNEL` before its matching `}`.
fn literal_names_kernel_lock(toks: &[Token<'_>], mut i: usize) -> bool {
    if !toks.get(i).is_some_and(|t| t.is_punct('{')) {
        return false;
    }
    let mut depth = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_ident("LOCK_KERNEL") {
            return true;
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn kd012_flags_ordered_maps_in_every_mem_file_only() {
        let src = "use std::collections::BTreeMap;\nlet s: BTreeSet<u64>;\n";
        // No crates/mem source file is exempt: every real one fires.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../mem/src");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).expect("crates/mem/src") {
            let name = entry.expect("readable entry").file_name();
            let path = format!("crates/mem/src/{}", name.to_string_lossy());
            let d = check_source(&path, Some("mem"), src);
            assert_eq!(rules_of(&d), ["KD012", "KD012"], "{path}");
            files += 1;
        }
        assert!(files > 1, "crates/mem/src lists its modules");
        // Other crates are clippy's `disallowed-types` territory, not KD012's.
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert!(d.is_empty(), "{d:?}");
        // Comments and strings are invisible as always.
        let src = "// a BTreeMap here would regress the hot path\n";
        let d = check_source("crates/mem/src/nvm.rs", Some("mem"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kd003_needs_cast_and_identifier_in_one_statement() {
        let d = check_source("crates/os/src/x.rs", Some("os"), "let x = pfn as u32;\n");
        assert_eq!(rules_of(&d), ["KD003"]);
        let d = check_source("crates/os/src/x.rs", Some("os"), "let pid = words[1] as u32;\n");
        assert!(d.is_empty());
        let d = check_source("crates/types/src/x.rs", Some("types"), "let x = pfn as u32;\n");
        assert!(d.is_empty());
    }

    #[test]
    fn kd003_sees_through_multi_line_expressions() {
        // The operand (`cycles`) sits on the line before the cast.
        let src = "let short = some.cycles()\n    .min(other) as u32;\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert_eq!(rules_of(&d), ["KD003"]);
        assert_eq!(d[0].line, 2);
        // A comment between operand and cast does not break the statement.
        let src = "let short = pa.as_u64()\n    // narrowed for the header\n    as u32;\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert_eq!(rules_of(&d), ["KD003"]);
        // A `;` ends the statement: the next one is judged alone.
        let src = "let c = pa.as_u64();\nlet pid = words[1] as u32;\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kd006_flags_arithmetic_inside_cycles_new() {
        let d = check_source("crates/os/src/x.rs", Some("os"), "Cycles::new(base + 4);\n");
        assert_eq!(rules_of(&d), ["KD006"]);
        let d = check_source("crates/mem/src/x.rs", Some("mem"), "Cycles::new(limit - used);\n");
        assert_eq!(rules_of(&d), ["KD006"]);
        let d = check_source("crates/os/src/x.rs", Some("os"), "Cycles::new(f(a + b));\n");
        assert_eq!(rules_of(&d), ["KD006"]);
        // Multi-line argument expressions are still one call.
        let src = "Cycles::new(\n    base\n        + extra,\n);\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert_eq!(rules_of(&d), ["KD006"]);
    }

    #[test]
    fn kd006_allows_plain_terms_and_types_crate() {
        let d = check_source("crates/os/src/x.rs", Some("os"), "Cycles::new(self.costs.op);\n");
        assert!(d.is_empty(), "{d:?}");
        let d =
            check_source("crates/os/src/x.rs", Some("os"), "Cycles::new(a) + Cycles::new(b);\n");
        assert!(d.is_empty(), "{d:?}");
        let d = check_source("crates/types/src/x.rs", Some("types"), "Cycles::new(a + b);\n");
        assert!(d.is_empty(), "{d:?}");
        // Closure return annotations are not subtraction.
        let d = check_source(
            "crates/os/src/x.rs",
            Some("os"),
            "Cycles::new(apply(|| -> u64 { 4 }));\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kd010_balanced_functions_pass() {
        let src = "fn f() -> Result<()> {\n\
                   \x20   sanitize::emit(|| Event::LockAcquire { id: LOCK_KERNEL });\n\
                   \x20   let r = self.locked();\n\
                   \x20   sanitize::emit(|| Event::LockRelease { id: LOCK_KERNEL });\n\
                   \x20   r\n\
                   }\n";
        let d = check_source("crates/persist/src/x.rs", Some("persist"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kd010_flags_early_exit_with_lock_held() {
        let src = "fn f() -> Result<()> {\n\
                   \x20   sanitize::emit(|| Event::LockAcquire { id: LOCK_REDO_LOG });\n\
                   \x20   let x = fallible()?;\n\
                   \x20   sanitize::emit(|| Event::LockRelease { id: LOCK_REDO_LOG });\n\
                   \x20   Ok(x)\n\
                   }\n";
        let d = check_source("crates/persist/src/x.rs", Some("persist"), src);
        assert_eq!(rules_of(&d), ["KD010"]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn kd010_flags_fall_through_and_bare_release() {
        let src = "fn f() {\n\
                   \x20   sanitize::emit(|| Event::LockAcquire { id: LOCK_KERNEL });\n\
                   }\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert_eq!(rules_of(&d), ["KD010"]);
        let src = "fn g() {\n\
                   \x20   sanitize::emit(|| Event::LockRelease { id: LOCK_KERNEL });\n\
                   }\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert_eq!(rules_of(&d), ["KD010"]);
    }

    #[test]
    fn kd010_release_then_return_inside_branch_is_balanced() {
        let src = "fn f() -> Option<u64> {\n\
                   \x20   sanitize::emit(|| Event::LockAcquire { id: LOCK_REDO_LOG });\n\
                   \x20   if bad {\n\
                   \x20       sanitize::emit(|| Event::LockRelease { id: LOCK_REDO_LOG });\n\
                   \x20       return None;\n\
                   \x20   }\n\
                   \x20   sanitize::emit(|| Event::LockRelease { id: LOCK_REDO_LOG });\n\
                   \x20   Some(1)\n\
                   }\n";
        let d = check_source("crates/persist/src/x.rs", Some("persist"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kd010_flags_one_sided_conditional_acquire() {
        let src = "fn f() {\n\
                   \x20   if fancy {\n\
                   \x20       sanitize::emit(|| Event::LockAcquire { id: LOCK_KERNEL });\n\
                   \x20   }\n\
                   \x20   sanitize::emit(|| Event::LockRelease { id: LOCK_KERNEL });\n\
                   }\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert!(rules_of(&d).contains(&"KD010"), "{d:?}");
    }

    #[test]
    fn kd010_ignores_match_patterns() {
        // Reading lock events (sanitizer-style) is not emitting them.
        let src = "fn f(e: &Event) {\n\
                   \x20   match e {\n\
                   \x20       Event::LockAcquire { .. } | Event::LockRelease { .. } => {}\n\
                   \x20       Event::LockAcquire { id } => use_id(id),\n\
                   \x20       _ => {}\n\
                   \x20   }\n\
                   }\n";
        let d = check_source("crates/types/src/x.rs", Some("types"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kd009_covered_writes_pass_in_both_orders() {
        // emit-then-write.
        let src = "fn f(&mut self) {\n\
                   \x20   sanitize::emit(|| Event::NvmWrite { line: l, cycle: c });\n\
                   \x20   self.page_mut(pfn);\n\
                   }\n";
        let d = check_source("crates/mem/src/x.rs", Some("mem"), src);
        assert!(d.is_empty(), "{d:?}");
        // write-then-emit.
        let src = "fn f(&mut self) {\n\
                   \x20   self.set_frame_bit(idx, true);\n\
                   \x20   sanitize::emit(|| Event::FrameAlloc { pool, pfn });\n\
                   }\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kd009_flags_uncovered_write_at_exit_and_fall_through() {
        let src = "fn f(&mut self) -> Result<()> {\n\
                   \x20   self.store_leaf(pa, pte);\n\
                   \x20   other()?;\n\
                   \x20   sanitize::emit(|| Event::PteInstall { pfn, vpn });\n\
                   \x20   Ok(())\n\
                   }\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert_eq!(rules_of(&d), ["KD009"]);
        assert_eq!(d[0].line, 3);
        let src = "fn g(&mut self) {\n\
                   \x20   self.bump_log_head(mem, head);\n\
                   }\n";
        let d = check_source("crates/persist/src/x.rs", Some("persist"), src);
        assert_eq!(rules_of(&d), ["KD009"]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn kd009_checkpoint_bracket_and_kernel_lock_cover() {
        let src = "fn f(&mut self) {\n\
                   \x20   self.checkpoint_start();\n\
                   \x20   self.page_mut(pfn);\n\
                   \x20   self.checkpoint_end();\n\
                   }\n";
        let d = check_source("crates/mem/src/x.rs", Some("mem"), src);
        assert!(d.is_empty(), "{d:?}");
        let src = "fn f(&mut self) {\n\
                   \x20   sanitize::emit(|| Event::LockAcquire { id: sanitize::LOCK_KERNEL });\n\
                   \x20   self.store_leaf(pa, pte);\n\
                   \x20   sanitize::emit(|| Event::LockRelease { id: sanitize::LOCK_KERNEL });\n\
                   }\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kd009_scoped_to_nvm_discipline_crates() {
        let src = "fn f(&mut self) { self.page_mut(pfn); }\n";
        let d = check_source("crates/hscc/src/x.rs", Some("hscc"), src);
        assert!(d.is_empty(), "{d:?}");
        let d = check_source("crates/mem/src/x.rs", Some("mem"), src);
        assert_eq!(rules_of(&d), ["KD009"]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { pfn as u32; }\n}\n";
        let d = check_source("crates/os/src/x.rs", Some("os"), src);
        assert!(d.is_empty());
        let d = check_source("crates/os/tests/it.rs", Some("os"), "let x = pfn as u32;\n");
        assert!(d.is_empty());
    }

    #[test]
    fn diagnostics_carry_position_and_sort() {
        let d = check_source("crates/os/src/x.rs", Some("os"), "fn f() {}\nlet x = pfn as u32;\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].path, "crates/os/src/x.rs");
    }
}
