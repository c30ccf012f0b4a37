//! Diagnostics: what a lint reports and how it is rendered.

use std::fmt;

/// One finding from one lint at one source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable lint id (`unwrap-in-lib`, ...).
    pub lint: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// 1-based column of the finding.
    pub column: usize,
    /// Human-readable explanation of the violation.
    pub message: String,
    /// The offending source line, trimmed, for context.
    pub snippet: String,
}

impl Diagnostic {
    /// Renders the diagnostic in the human `file:line:col` format.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}\n    | {}",
            self.file, self.line, self.column, self.lint, self.message, self.snippet
        )
    }

    /// Renders the diagnostic as a JSON object.
    ///
    /// Hand-rolled because the workspace has no serialisation dependency;
    /// the schema is small and stable enough that this is the simpler choice.
    pub fn render_json(&self) -> String {
        format!(
            r#"{{"lint":"{}","file":"{}","line":{},"column":{},"message":"{}","snippet":"{}"}}"#,
            json_escape(self.lint),
            json_escape(&self.file),
            self.line,
            self.column,
            json_escape(&self.message),
            json_escape(&self.snippet)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_human())
    }
}

/// Renders a full report (all diagnostics) as a JSON document.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"violations\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&d.render_json());
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"total\": {}\n}}\n", diags.len()));
    out
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            lint: "unwrap-in-lib",
            file: "crates/edge/src/latency.rs".into(),
            line: 53,
            column: 10,
            message: "`.expect()` in non-test library code".into(),
            snippet: r#"x.expect("finite")"#.into(),
        }
    }

    #[test]
    fn human_format_has_location_and_lint() {
        let s = sample().render_human();
        assert!(s.contains("crates/edge/src/latency.rs:53:10"));
        assert!(s.contains("[unwrap-in-lib]"));
    }

    #[test]
    fn json_escapes_quotes() {
        let s = sample().render_json();
        assert!(s.contains(r#"\"finite\""#));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn json_report_counts() {
        let report = render_json_report(&[sample(), sample()]);
        assert!(report.contains("\"total\": 2"));
        let empty = render_json_report(&[]);
        assert!(empty.contains("\"total\": 0"));
        assert!(empty.contains("[]"));
    }

    #[test]
    fn escape_control_chars() {
        assert_eq!(json_escape("a\nb\t\"c\"\\"), "a\\nb\\t\\\"c\\\"\\\\");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
