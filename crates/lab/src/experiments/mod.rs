//! One module per reproduced table / figure.

pub mod ablations;
pub mod fig1;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod megacell;
pub mod mitigation;
pub mod model_check;
pub mod resilience;
pub mod table1;
pub mod table4;

use crate::{Report, RunOpts};

/// An experiment's one entry point. Every runner returns byte-identical
/// output for every `jobs` value in its [`RunOpts`]; only the wall clock
/// changes.
pub type Runner = fn(&RunOpts) -> Report;

/// Every experiment as `(name, runner)`, in a sensible execution order.
pub const ALL: &[(&str, Runner)] = &[
    ("model_check", model_check::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig1", fig1::run),
    ("table1", table1::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("table4", table4::run),
    ("megacell", megacell::run),
    ("ablations", ablations::run),
    ("mitigation", mitigation::run),
    ("resilience", resilience::run),
];

/// The runner registered under `name` in [`ALL`], if any.
pub fn find(name: &str) -> Option<Runner> {
    ALL.iter().find(|(n, _)| *n == name).map(|(_, run)| *run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_are_unique_and_known() {
        let set: std::collections::BTreeSet<_> = ALL.iter().map(|(name, _)| name).collect();
        assert_eq!(set.len(), ALL.len(), "duplicate experiment names");
        for (name, _) in ALL {
            assert!(find(name).is_some(), "{name} not found");
        }
    }

    #[test]
    fn unknown_name_is_not_found() {
        assert!(find("nonsense").is_none());
    }
}
