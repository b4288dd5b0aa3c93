//! Diagnostic records produced by the lint rules.

use std::fmt;

/// One finding: a rule violated at a file:line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Rule id, e.g. `KD003`.
    pub rule: &'static str,
    /// Human explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(path: &str, line: usize, rule: &'static str, message: &str) -> Self {
        Diagnostic { path: path.to_string(), line, rule, message: message.to_string() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} {}", self.path, self.line, self.rule, self.message)
    }
}

/// Renders diagnostics as a JSON array of `{rule, path, line, message}`
/// objects, for the `--json` lint artifact.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(d.rule),
            escape(&d.path),
            d.line,
            escape(&d.message)
        ));
    }
    out.push_str("\n]");
    out
}

fn escape(s: &str) -> String {
    let mut e = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => e.push_str("\\\""),
            '\\' => e.push_str("\\\\"),
            '\n' => e.push_str("\\n"),
            '\t' => e.push_str("\\t"),
            c if (c as u32) < 0x20 => e.push_str(&format!("\\u{:04x}", c as u32)),
            c => e.push(c),
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let d = Diagnostic::new("crates/os/src/x.rs", 7, "KD003", "no cast");
        assert_eq!(d.to_string(), "crates/os/src/x.rs:7: KD003 no cast");
    }

    #[test]
    fn json_rows_escape_and_order() {
        let diags = vec![
            Diagnostic::new("a.rs", 1, "KD012", "no \"ordered\" maps"),
            Diagnostic::new("b.rs", 2, "KD003", "plain"),
        ];
        let json = to_json(&diags);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\\\"ordered\\\""), "{json}");
        assert!(json.contains("\"line\": 2"), "{json}");
        assert_eq!(to_json(&[]), "[\n]");
    }
}
