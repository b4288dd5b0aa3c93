//! Violation suppression: inline allow comments and the allowlist file.
//!
//! Two mechanisms, both requiring an explicit rule id:
//!
//! 1. **Inline comment** — append `// check:allow KDnnn: reason` to the
//!    offending line (or put it on the line directly above). The reason is
//!    mandatory prose; a bare `check:allow KDnnn` is ignored.
//! 2. **Allowlist file** — `check-allowlist.txt` at the workspace root,
//!    one entry per line:
//!
//!    ```text
//!    # comment
//!    KD003 crates/os/src/frame.rs (pfn as u32)
//!    ```
//!
//!    Fields are rule id, workspace-relative path, and a substring that
//!    must occur in the flagged line (so entries survive line-number
//!    drift). Unused entries are reported as stale. `scripts/check.sh`
//!    additionally requires a `#` justification comment on the line
//!    directly above each entry — the policy is fix, don't allowlist.

use crate::diag::Diagnostic;

/// A parsed allowlist entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Substring that must appear in the flagged source line.
    pub pattern: String,
}

/// Parses the allowlist file body. Returns entries and per-line syntax
/// errors (reported but not fatal).
pub fn parse_allowlist(body: &str) -> (Vec<AllowEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(pattern))
                if rule.starts_with("KD") && !pattern.trim().is_empty() =>
            {
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    path: path.to_string(),
                    pattern: pattern.trim().to_string(),
                });
            }
            _ => errors.push(format!(
                "check-allowlist.txt:{}: malformed entry (want: KDnnn <path> <substring>)",
                idx + 1
            )),
        }
    }
    (entries, errors)
}

/// True if the diagnostic's source line (or the one above it) carries an
/// inline `check:allow <rule>:` comment with a reason.
pub fn inline_allowed(diag: &Diagnostic, source: &str) -> bool {
    let lines: Vec<&str> = source.lines().collect();
    let here = diag.line.checked_sub(1).and_then(|i| lines.get(i).copied());
    let above = diag.line.checked_sub(2).and_then(|i| lines.get(i).copied());
    [here, above].into_iter().flatten().any(|l| has_allow_comment(l, diag.rule))
}

fn has_allow_comment(line: &str, rule: &str) -> bool {
    let Some(pos) = line.find("check:allow ") else {
        return false;
    };
    let rest = &line[pos + "check:allow ".len()..];
    let Some(rest) = rest.strip_prefix(rule) else {
        return false;
    };
    // Require a reason after the rule id (": why" or "- why" or "— why").
    rest.trim_start_matches([':', '-', ' ', '—']).chars().any(|c| c.is_alphanumeric())
}

/// Splits diagnostics into (kept, suppressed) plus descriptions of stale
/// allowlist entries that matched nothing. `line_of` resolves a diagnostic
/// to its source line text.
pub fn apply_allowlist(
    diags: Vec<Diagnostic>,
    entries: &[AllowEntry],
    mut line_of: impl FnMut(&Diagnostic) -> Option<String>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<String>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; entries.len()];
    for d in diags {
        let line = line_of(&d).unwrap_or_default();
        let hit = entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.rule == d.rule && e.path == d.path && line.contains(&e.pattern));
        if let Some((i, _)) = hit {
            used[i] = true;
            suppressed.push(d);
        } else {
            kept.push(d);
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|&(_, &u)| !u)
        .map(|(e, _)| format!("{} {} {}", e.rule, e.path, e.pattern))
        .collect();
    (kept, suppressed, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_rejects() {
        let body = "# header\nKD003 crates/os/src/frame.rs (pfn as u32)\n\nbadline\n";
        let (entries, errors) = parse_allowlist(body);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "KD003");
        assert_eq!(entries[0].path, "crates/os/src/frame.rs");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains(":4:"), "{}", errors[0]);
    }

    #[test]
    fn inline_allow_requires_rule_and_reason() {
        let src = "let w = pfn as u32; // check:allow KD003: bitmap index\n";
        let d = Diagnostic::new("f.rs", 1, "KD003", "m");
        assert!(inline_allowed(&d, src));
        // Wrong rule id does not suppress.
        let d2 = Diagnostic::new("f.rs", 1, "KD013", "m");
        assert!(!inline_allowed(&d2, src));
        // Bare allow without a reason does not suppress.
        let bare = "let w = pfn as u32; // check:allow KD003\n";
        assert!(!inline_allowed(&d, bare));
    }

    #[test]
    fn inline_allow_on_preceding_line() {
        let src = "// check:allow KD003: bitmap index\nlet w = pfn as u32;\n";
        let d = Diagnostic::new("f.rs", 2, "KD003", "m");
        assert!(inline_allowed(&d, src));
    }

    #[test]
    fn allowlist_suppresses_matching_line() {
        let entries = vec![AllowEntry {
            rule: "KD003".into(),
            path: "crates/os/src/frame.rs".into(),
            pattern: "(pfn as u32)".into(),
        }];
        let diags = vec![
            Diagnostic::new("crates/os/src/frame.rs", 9, "KD003", "m"),
            Diagnostic::new("crates/os/src/frame.rs", 12, "KD003", "m"),
        ];
        let (kept, suppressed, _) = apply_allowlist(diags, &entries, |d| {
            if d.line == 9 {
                Some("self.bits.set(usize::from(pfn as u32));".to_string())
            } else {
                Some("let w = vpn as u16;".to_string())
            }
        });
        assert_eq!(suppressed.len(), 1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 12);
    }
}
