//! Violation suppression: inline allow comments.
//!
//! Append `// check:allow KDnnn: reason` to the offending line, or put it
//! on the line directly above. The rule id and the reason are both
//! mandatory; a bare `check:allow KDnnn` is ignored. The policy is fix,
//! don't allow: a comment is for the rare provably-safe site.

use crate::diag::Diagnostic;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
