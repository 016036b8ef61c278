//! The rule registry and rule filtering.
//!
//! Every rule the engine can emit is listed here with its identifier,
//! default severity and a one-line summary — the source of truth for
//! `fbt-lint --list-rules` and for validating `--allow`/`--deny`
//! arguments before a run.

use std::collections::BTreeSet;

use crate::diag::{LintReport, Severity};

/// Metadata for one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable kebab-case identifier.
    pub id: &'static str,
    /// Severity the rule emits at.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule, sorted by identifier.
pub const ALL_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "bench-parse",
        severity: Severity::Error,
        summary: "the .bench document is not syntactically valid",
    },
    RuleInfo {
        id: "comb-cycle",
        severity: Severity::Error,
        summary: "combinational feedback loop (strongly connected gate component)",
    },
    RuleInfo {
        id: "const-gate",
        severity: Severity::Warning,
        summary: "gate output is structurally constant; its transition faults are untestable",
    },
    RuleInfo {
        id: "constraint-const-pi",
        severity: Severity::Warning,
        summary: "constraints force a primary input to a single value",
    },
    RuleInfo {
        id: "constraint-parse",
        severity: Severity::Error,
        summary: "unparseable line in a constraint file",
    },
    RuleInfo {
        id: "constraint-unknown-pi",
        severity: Severity::Error,
        summary: "constraint references a net that is not a primary input",
    },
    RuleInfo {
        id: "constraint-unsat",
        severity: Severity::Error,
        summary: "the primary-input constraint set is unsatisfiable (SAT-proved)",
    },
    RuleInfo {
        id: "dangling-gate",
        severity: Severity::Warning,
        summary: "gate drives nothing and no primary output",
    },
    RuleInfo {
        id: "dup-cone",
        severity: Severity::Warning,
        summary: "structurally duplicate logic cones (SAT-confirmed equivalent)",
    },
    RuleInfo {
        id: "fanout-outlier",
        severity: Severity::Note,
        summary: "net with extreme fanout relative to the circuit average",
    },
    RuleInfo {
        id: "fix-applied",
        severity: Severity::Note,
        summary: "autofix batch applied and certified equivalent by SAT miter (--fix)",
    },
    RuleInfo {
        id: "fix-refuted",
        severity: Severity::Warning,
        summary: "autofix batch refuted by SAT miter; reported with counterexample (--fix)",
    },
    RuleInfo {
        id: "no-sources",
        severity: Severity::Error,
        summary: "circuit has no primary inputs and no flip-flops",
    },
    RuleInfo {
        id: "pi-shadowed",
        severity: Severity::Error,
        summary: "gate or flip-flop output collides with a primary input name",
    },
    RuleInfo {
        id: "redefined-net",
        severity: Severity::Error,
        summary: "signal defined more than once",
    },
    RuleInfo {
        id: "scoap-hard",
        severity: Severity::Note,
        summary: "cones whose SCOAP controllability/observability exceed the threshold",
    },
    RuleInfo {
        id: "undriven-net",
        severity: Severity::Error,
        summary: "net referenced but never driven",
    },
    RuleInfo {
        id: "unobservable-gate",
        severity: Severity::Warning,
        summary: "gate with no path to any primary output or flip-flop D-input",
    },
    RuleInfo {
        id: "verilog-parse",
        severity: Severity::Error,
        summary: "the Verilog document is not syntactically valid (structural subset)",
    },
    RuleInfo {
        id: "x-source-ff",
        severity: Severity::Note,
        summary: "flip-flops that never initialize in three-valued simulation",
    },
];

/// Look up a rule by identifier.
pub fn find_rule(id: &str) -> Option<&'static RuleInfo> {
    ALL_RULES.iter().find(|r| r.id == id)
}

/// Which diagnostics to keep and what fails a run.
///
/// `allow`ed rules are removed from reports entirely; the run fails when
/// any remaining diagnostic is at or above `deny_level`, or matches an
/// explicitly denied rule id.
#[derive(Debug, Clone)]
pub struct RuleFilter {
    allowed: BTreeSet<String>,
    denied_rules: BTreeSet<String>,
    /// Severity at or above which a diagnostic fails the run.
    pub deny_level: Severity,
}

impl Default for RuleFilter {
    fn default() -> Self {
        RuleFilter {
            allowed: BTreeSet::new(),
            denied_rules: BTreeSet::new(),
            deny_level: Severity::Error,
        }
    }
}

impl RuleFilter {
    /// Silence a rule entirely. Returns `false` for unknown rule ids.
    pub fn allow(&mut self, rule: &str) -> bool {
        if find_rule(rule).is_none() {
            return false;
        }
        self.allowed.insert(rule.to_string());
        true
    }

    /// Fail the run on any finding of this rule (regardless of severity).
    /// Returns `false` for unknown rule ids.
    pub fn deny_rule(&mut self, rule: &str) -> bool {
        if find_rule(rule).is_none() {
            return false;
        }
        self.denied_rules.insert(rule.to_string());
        true
    }

    /// Remove allowed rules' diagnostics from the report.
    pub fn apply(&self, report: &mut LintReport) {
        report.retain(|d| !self.allowed.contains(d.rule_id));
    }

    /// Whether the (already filtered) report fails under this filter.
    pub fn fails(&self, report: &mut LintReport) -> bool {
        report
            .diagnostics()
            .iter()
            .any(|d| d.severity >= self.deny_level || self.denied_rules.contains(d.rule_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in ALL_RULES.windows(2) {
            assert!(w[0].id < w[1].id, "{} !< {}", w[0].id, w[1].id);
        }
    }

    #[test]
    fn find_rule_roundtrips() {
        for r in ALL_RULES {
            assert_eq!(find_rule(r.id).unwrap().id, r.id);
        }
        assert!(find_rule("no-such-rule").is_none());
    }

    #[test]
    fn filter_allow_and_deny_semantics() {
        let mut r = LintReport::new("c");
        r.push(Diagnostic::new("const-gate", Severity::Warning, "c:g", "m"));
        r.push(Diagnostic::new("comb-cycle", Severity::Error, "c:h", "m"));

        let mut f = RuleFilter::default();
        assert!(f.fails(&mut r.clone())); // default: deny errors

        // Allowing the error rule silences it; warnings don't fail.
        assert!(f.allow("comb-cycle"));
        let mut r2 = r.clone();
        f.apply(&mut r2);
        assert_eq!(r2.len(), 1);
        assert!(!f.fails(&mut r2));

        // Denying a specific warning rule fails even below deny_level.
        let mut f2 = RuleFilter::default();
        assert!(f2.deny_rule("const-gate"));
        let mut r3 = r.clone();
        f2.apply(&mut r3);
        assert!(f2.fails(&mut r3));

        // Unknown rules are rejected.
        assert!(!f.allow("bogus"));
        assert!(!f2.deny_rule("bogus"));
    }

    #[test]
    fn deny_level_warning_catches_warnings() {
        let mut r = LintReport::new("c");
        r.push(Diagnostic::new("const-gate", Severity::Warning, "c:g", "m"));
        let f = RuleFilter {
            deny_level: Severity::Warning,
            ..RuleFilter::default()
        };
        let mut rr = r.clone();
        assert!(f.fails(&mut rr));
    }
}
