#![warn(missing_docs)]

//! Static design-rule analysis for netlists and PI constraints.
//!
//! Chapter 4's built-in generation pipeline assumes well-formed inputs —
//! acyclic combinational logic, driven nets, satisfiable constraint cubes.
//! Violations otherwise surface as wrong coverage numbers or search budget
//! burned on untestable-by-construction faults. This crate front-loads
//! those checks, production-DRC style:
//!
//! * [`diag`] — the shared diagnostics layer: [`Diagnostic`]s with rule id,
//!   severity, location, message and help, collected into [`LintReport`]s
//!   with deterministic ordering, a pretty printer and a JSON emitter;
//! * [`graph`] — [`graph::RawCircuit`], a tolerant circuit graph that can
//!   represent the broken circuits `Netlist` construction rejects;
//! * [`structural`] — graph-only passes: combinational cycles (Tarjan),
//!   undriven nets, duplicate definitions, input shadowing, dangling and
//!   unobservable logic, constant gates, X-source flip-flops, fanout
//!   outliers;
//! * [`scoap`] — SCOAP-style controllability/observability scoring;
//! * [`constraints`] / [`dupes`] — semantic passes backed by the `fbt-sat`
//!   CDCL engine: constraint-cube vacuity, constraint-implied constant
//!   inputs, and XOR-miter confirmation of duplicate cones;
//! * [`rules`] — the rule registry and `--allow`/`--deny` filtering;
//! * [`preflight`] — [`PreflightEvidence`], the per-line untestability
//!   oracle consumed by `fbt-atpg` and `fbt-core` before spending budget;
//! * [`fix`] — SAT-certified autofixes (`fbt-lint --fix`): mechanical
//!   repairs for the structural rules, each batch proven equivalent by an
//!   XOR-miter before it is committed.
//!
//! # Example
//!
//! ```
//! use fbt_lint::{lint_bench_text, Severity};
//!
//! let mut report = lint_bench_text("INPUT(a)\nOUTPUT(x)\nx = AND(a, x)\n", "loopy");
//! assert!(report.any_at_least(Severity::Error)); // comb-cycle
//! ```

pub mod constraints;
pub mod diag;
pub mod dupes;
pub mod fix;
pub mod graph;
pub mod preflight;
pub mod rules;
pub mod scoap;
pub mod structural;

pub use constraints::ConstraintSet;
pub use diag::{Diagnostic, LintReport, Severity};
pub use fix::{fix_bench_text, fix_netlist, fix_raw, fix_text, FixConfig, FixOutcome};
pub use preflight::PreflightEvidence;
pub use rules::{RuleFilter, RuleInfo, ALL_RULES};

use fbt_netlist::frontend::{self, Format, RawDoc};
use fbt_netlist::Netlist;

/// Lint a valid [`Netlist`]: all structural passes plus the SCOAP scoring,
/// X-source simulation and SAT-confirmed duplicate-cone pass.
pub fn lint_netlist(net: &Netlist) -> LintReport {
    let mut report = LintReport::new(net.name());
    let c = graph::RawCircuit::from_netlist(net);
    structural::run(&c, &mut report);
    scoap::run(&c, &mut report);
    structural::x_source_ffs(net, &mut report);
    dupes::run(net, &mut report);
    report.sort();
    report
}

/// Lint a syntax-level raw document (from either frontend): structural
/// passes always run on the tolerant graph; the simulation- and SAT-backed
/// passes additionally run when the document builds into a valid
/// [`Netlist`].
pub fn lint_raw(raw: &RawDoc) -> LintReport {
    let mut report = LintReport::new(&raw.name);
    let c = graph::RawCircuit::from_raw_bench(raw);
    structural::run(&c, &mut report);
    scoap::run(&c, &mut report);
    if let Ok(net) = raw.to_builder().and_then(|b| b.finish()) {
        structural::x_source_ffs(&net, &mut report);
        dupes::run(&net, &mut report);
    }
    report.sort();
    report
}

/// Lint circuit source text in the given wire format. A syntax error
/// becomes a single `bench-parse` / `verilog-parse` error diagnostic; an
/// unparseable document cannot be analyzed further.
pub fn lint_text(text: &str, name: &str, format: Format) -> LintReport {
    match frontend::parse_raw(text, name, format) {
        Ok(raw) => lint_raw(&raw),
        Err(e) => {
            let (rule, what) = match format {
                Format::Bench => ("bench-parse", ".bench"),
                Format::Verilog => ("verilog-parse", "structural Verilog"),
            };
            let location = match &e {
                fbt_netlist::NetlistError::Parse { line, .. } => {
                    format!("{name}:line {line}")
                }
                fbt_netlist::NetlistError::ParseAt { line, .. } => {
                    format!("{name}:line {line}")
                }
                _ => name.to_string(),
            };
            let mut report = LintReport::new(name);
            report.push(
                Diagnostic::new(
                    rule,
                    Severity::Error,
                    location,
                    format!("not valid {what} syntax: {e}"),
                )
                .with_help("fix the syntax error; structural analysis needs a parseable document"),
            );
            report
        }
    }
}

/// Lint `.bench` source text ([`lint_text`] with [`Format::Bench`]).
pub fn lint_bench_text(text: &str, name: &str) -> LintReport {
    lint_text(text, name, Format::Bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_netlist_clean_on_s27() {
        let mut r = lint_netlist(&fbt_netlist::s27());
        // s27 is structurally clean; its FFs are X-sources under all-X
        // inputs, which is only a note.
        assert!(!r.any_at_least(Severity::Warning), "{:?}", r.diagnostics());
    }

    #[test]
    fn lint_raw_runs_all_layers_on_valid_input() {
        let raw = fbt_netlist::bench::parse_raw(
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nx = AND(a, b)\ny = AND(b, a)\nz = OR(x, y)\n",
            "dup",
        )
        .unwrap();
        let mut r = lint_raw(&raw);
        assert!(r.diagnostics().iter().any(|d| d.rule_id == "dup-cone"));
    }

    #[test]
    fn lint_raw_still_reports_on_broken_input() {
        let raw = fbt_netlist::bench::parse_raw(
            "INPUT(a)\nOUTPUT(x)\nx = AND(a, x)\ny = NOT(ghost)\nOUTPUT(y)\n",
            "broken",
        )
        .unwrap();
        let mut r = lint_raw(&raw);
        let rules: Vec<_> = r.diagnostics().iter().map(|d| d.rule_id).collect();
        assert!(rules.contains(&"comb-cycle"), "{rules:?}");
        assert!(rules.contains(&"undriven-net"), "{rules:?}");
    }

    #[test]
    fn lint_bench_text_survives_syntax_errors() {
        let r = lint_bench_text("not bench at all", "junk");
        assert!(r.any_at_least(Severity::Error));
    }

    #[test]
    fn reports_are_bit_identical_across_runs() {
        let net = fbt_netlist::synth::generate(
            &fbt_netlist::synth::find("s298").expect("catalog circuit"),
        );
        let a = lint_netlist(&net).to_json();
        let b = lint_netlist(&net).to_json();
        assert_eq!(a, b);
    }
}
