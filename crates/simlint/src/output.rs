//! Machine-readable output: JSON and SARIF 2.1.0.
//!
//! Everything here is hand-rolled string building, consistent with the
//! crate's zero-dependency policy. Output is deterministic: diagnostics are
//! already sorted by (path, line, rule) when they reach these renderers.

use crate::registry::{self, Severity};
use crate::Diagnostic;

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// All findings as one JSON array (the `--format json` payload).
pub fn json_array(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

/// All findings as a minimal SARIF 2.1.0 log (the `--format sarif`
/// payload), with the rule registry as tool metadata.
pub fn sarif(diags: &[Diagnostic]) -> String {
    let rules: Vec<String> = registry::RULES
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\"defaultConfiguration\":{{\"level\":\"{}\"}}}}",
                r.id,
                json_escape(r.summary),
                r.severity.as_str()
            )
        })
        .collect();
    let results: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}},\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                d.rule,
                d.severity.as_str(),
                json_escape(&d.message),
                json_escape(&d.file),
                d.line
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"simlint\",\"informationUri\":\"https://example.invalid/simlint\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}",
        rules.join(","),
        results.join(",")
    )
}

/// `true` when any finding gates the build (i.e. has `error` severity).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: u32, rule: &'static str) -> Diagnostic {
        Diagnostic::new(rule, file, line, "msg".to_string())
    }

    #[test]
    fn sarif_names_every_rule_and_result() {
        let s = sarif(&[diag("crates/a.rs", 3, "hot-path-alloc")]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"ruleId\":\"hot-path-alloc\""));
        for r in &crate::registry::RULES {
            assert!(s.contains(&format!("\"id\":\"{}\"", r.id)));
        }
    }
}
