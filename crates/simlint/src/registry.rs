//! The rule registry: every rule id simlint can emit, with its default
//! severity and a one-line description.
//!
//! The registry is the single source of truth consumed by `--list-rules`,
//! the SARIF `rules` array, and the allow-directive validator (an allow
//! naming a rule that is not registered is itself a diagnostic, so typoed
//! suppressions can never silently disable nothing).

use std::fmt;

/// How severe a finding is.
///
/// `Error` findings gate CI (exit code 1); `Warning` findings are advisory:
/// they are reported in every output format but never affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; reported but never gates.
    Warning,
    /// Gates the build.
    Error,
}

impl Severity {
    /// The lowercase name used in JSON/SARIF output (`"warning"`/`"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One registered rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id, as written in `allow(...)` directives.
    pub id: &'static str,
    /// Default severity of the rule's findings.
    pub severity: Severity,
    /// One-line description shown by `--list-rules` and in SARIF metadata.
    pub summary: &'static str,
}

/// Every rule simlint can emit, in stable (alphabetical) order.
pub const RULES: [Rule; 8] = [
    Rule {
        id: "bad-allow",
        severity: Severity::Error,
        summary: "a `simlint: allow(...)` directive names a rule id that does not exist",
    },
    Rule {
        id: "cow-discipline",
        severity: Severity::Error,
        summary: "a shared copy-on-write spine is mutated without flowing through Arc::make_mut",
    },
    Rule {
        id: "float-order",
        severity: Severity::Error,
        summary: "float reduction over an unordered iteration (result depends on hash order)",
    },
    Rule {
        id: "hot-path-alloc",
        severity: Severity::Error,
        summary: "heap allocation in a function reachable from a kernel hot entry point",
    },
    Rule {
        id: "naive-twin",
        severity: Severity::Error,
        summary: "an indexed query entry point lacks a *_naive full-scan twin exercised by a test",
    },
    Rule {
        id: "nondet-source",
        severity: Severity::Error,
        summary: "wall clock, OS entropy, environment reads, or raw threads in simulation code",
    },
    Rule {
        id: "unordered-iter",
        severity: Severity::Error,
        summary: "iterating a HashMap/HashSet, whose order is unspecified across runs",
    },
    Rule {
        id: "unused-allow",
        severity: Severity::Warning,
        summary: "a `simlint: allow(...)` directive suppresses nothing on its line or the next",
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// The default severity for a rule id (`Error` for ids not in the registry,
/// which cannot occur for diagnostics simlint itself constructs).
pub fn default_severity(id: &str) -> Severity {
    rule(id).map_or(Severity::Error, |r| r.severity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in RULES.windows(2) {
            assert!(pair[0].id < pair[1].id, "RULES must stay sorted by id");
        }
    }

    #[test]
    fn lookup_finds_every_rule() {
        for r in &RULES {
            assert_eq!(rule(r.id).unwrap().id, r.id);
        }
        assert!(rule("no-such-rule").is_none());
    }
}
