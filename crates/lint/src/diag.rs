//! The shared diagnostics layer: severities, diagnostics, and deterministic
//! reports with pretty and JSON emitters.
//!
//! Every lint pass funnels its findings into [`Diagnostic`]s collected by a
//! [`LintReport`]. The report sorts diagnostics into a canonical order
//! (severity, then rule, then location, then message) so repeated runs over
//! the same inputs are bit-identical — the property the golden-file CI step
//! asserts.

use std::fmt;

/// How serious a diagnostic is.
///
/// The derived ordering places [`Severity::Note`] lowest and
/// [`Severity::Error`] highest; reports print most-severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never a defect by itself.
    Note,
    /// Suspicious structure that wastes test budget or masks coverage.
    Warning,
    /// A defect: the circuit or constraint set is unusable as-is.
    Error,
}

impl Severity {
    /// The lowercase keyword used in pretty output, JSON, and `--deny`.
    pub fn keyword(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parse the lowercase keyword back into a severity.
    pub fn from_keyword(s: &str) -> Option<Severity> {
        match s {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One finding of one rule at one place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable kebab-case rule identifier (e.g. `comb-cycle`).
    pub rule_id: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Where: `circuit`, `circuit:node`, or `circuit:line N` — a plain
    /// string so every producer controls its own precision.
    pub location: String,
    /// What was found, in one sentence.
    pub message: String,
    /// How to fix or interpret it (may be empty).
    pub help: String,
}

impl Diagnostic {
    /// Build a diagnostic with an empty help string.
    pub fn new(
        rule_id: &'static str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule_id,
            severity,
            location: location.into(),
            message: message.into(),
            help: String::new(),
        }
    }

    /// Attach a help string.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = help.into();
        self
    }

    fn sort_key(&self) -> (std::cmp::Reverse<Severity>, &str, &str, &str) {
        (
            std::cmp::Reverse(self.severity),
            self.rule_id,
            &self.location,
            &self.message,
        )
    }

    /// Render as a single JSON object (hand-rolled, no dependencies).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule_id\":{},\"severity\":\"{}\",\"location\":{},\"message\":{},\"help\":{}}}",
            json_string(self.rule_id),
            self.severity,
            json_string(&self.location),
            json_string(&self.message),
            json_string(&self.help),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule_id, self.location, self.message
        )?;
        if !self.help.is_empty() {
            write!(f, "\n  help: {}", self.help)?;
        }
        Ok(())
    }
}

/// All diagnostics produced for one subject (a circuit or constraint set),
/// in canonical order.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// The linted subject's name (usually the circuit name).
    pub subject: String,
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report for the named subject.
    pub fn new(subject: impl Into<String>) -> Self {
        LintReport {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Add one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Absorb every diagnostic of another report.
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// The diagnostics in canonical order (sorts in place first).
    pub fn diagnostics(&mut self) -> &[Diagnostic] {
        self.sort();
        &self.diagnostics
    }

    /// Sort into canonical order: most severe first, then rule id,
    /// location, and message.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// Number of diagnostics at exactly this severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Whether any diagnostic is at or above the given severity.
    pub fn any_at_least(&self, sev: Severity) -> bool {
        self.diagnostics.iter().any(|d| d.severity >= sev)
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Total number of diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Drop diagnostics whose rule id fails the predicate.
    pub fn retain(&mut self, mut keep: impl FnMut(&Diagnostic) -> bool) {
        self.diagnostics.retain(|d| keep(d));
    }

    /// Render the whole report as one JSON object. Deterministic: sorts
    /// first, escapes all strings, no trailing whitespace.
    pub fn to_json(&mut self) -> String {
        self.sort();
        let body: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            "{{\"subject\":{},\"errors\":{},\"warnings\":{},\"notes\":{},\"diagnostics\":[{}]}}",
            json_string(&self.subject),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
            body.join(","),
        )
    }

    /// Render the report for humans: one line per diagnostic plus a summary.
    pub fn to_pretty(&mut self) -> String {
        self.sort();
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} note(s)\n",
            self.subject,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        ));
        out
    }
}

/// Escape a string as a JSON string literal.
///
/// This is the workspace-shared escaper, re-exported under the historical
/// name; the golden lint reports pin its exact behavior.
pub use fbt_netlist::json::escape as json_string;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
        assert_eq!(Severity::from_keyword("warning"), Some(Severity::Warning));
        assert_eq!(Severity::from_keyword("fatal"), None);
    }

    #[test]
    fn report_sorts_canonically() {
        let mut r = LintReport::new("c");
        r.push(Diagnostic::new("b-rule", Severity::Note, "c:n1", "m"));
        r.push(Diagnostic::new("a-rule", Severity::Error, "c:n2", "m"));
        r.push(Diagnostic::new("a-rule", Severity::Error, "c:n1", "m"));
        let d = r.diagnostics();
        assert_eq!(d[0].location, "c:n1");
        assert_eq!(d[1].location, "c:n2");
        assert_eq!(d[2].rule_id, "b-rule");
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut r = LintReport::new("c\"x");
        r.push(Diagnostic::new("r", Severity::Error, "c:n", "say \"hi\"\n").with_help("tab\there"));
        let j = r.to_json();
        assert!(j.contains("\"subject\":\"c\\\"x\""));
        assert!(j.contains("\\\"hi\\\"\\n"));
        assert!(j.contains("tab\\there"));
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"warnings\":0"));
    }

    #[test]
    fn json_is_deterministic_across_insertion_orders() {
        let a = Diagnostic::new("r1", Severity::Warning, "c:x", "m1");
        let b = Diagnostic::new("r2", Severity::Error, "c:y", "m2");
        let mut r1 = LintReport::new("c");
        r1.push(a.clone());
        r1.push(b.clone());
        let mut r2 = LintReport::new("c");
        r2.push(b);
        r2.push(a);
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn pretty_includes_help() {
        let mut r = LintReport::new("c");
        r.push(Diagnostic::new("r", Severity::Warning, "c:n", "msg").with_help("fix it"));
        let p = r.to_pretty();
        assert!(p.contains("warning[r] c:n: msg"));
        assert!(p.contains("  help: fix it"));
        assert!(p.contains("c: 0 error(s), 1 warning(s), 0 note(s)"));
    }
}
