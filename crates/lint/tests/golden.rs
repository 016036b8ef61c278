//! Golden-file tests: the lint reports for the seeded bad circuit and for
//! every catalog circuit with a `tests/golden/s*.json` file must stay
//! byte-identical to the JSON checked in there. CI diffs the CLI output
//! against the same files; these tests prove the library produces the exact
//! same bytes in-process, through the same calls the CLI makes
//! (`lint_netlist`, `lint_raw`, `ConstraintSet::parse` plus
//! `constraints::run_names`).

use std::path::Path;

use fbt_lint::{lint_bench_text, lint_netlist, ConstraintSet, LintReport, RuleFilter};
use fbt_netlist::synth;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Rebuild the bad-circuit report exactly the way the CLI does: bench lint
/// plus constraint lint against the raw primary-input names.
fn bad_circuit_report() -> LintReport {
    let text = fixture("bad_circuit.bench");
    let mut report = lint_bench_text(&text, "bad_circuit");

    let raw = fbt_netlist::bench::parse_raw(&text, "bad_circuit").expect("syntax is fine");
    let circuit = fbt_lint::graph::RawCircuit::from_raw_bench(&raw);
    let pi_names: Vec<&str> = circuit
        .nodes
        .iter()
        .filter(|n| n.kind == Some(fbt_netlist::GateKind::Input))
        .map(|n| n.name.as_str())
        .collect();

    let ctext = fixture("bad_circuit.constraints");
    let mut creport = LintReport::new("bad_circuit");
    let set = ConstraintSet::parse(&ctext, "bad_circuit", &mut creport);
    fbt_lint::constraints::run_names("bad_circuit", &pi_names, &set, &mut creport);
    report.extend(creport);
    report
}

#[test]
fn bad_circuit_matches_golden_json() {
    let mut report = bad_circuit_report();
    assert_eq!(report.to_json() + "\n", golden("bad_circuit.json"));
}

#[test]
fn bad_circuit_fails_default_deny_filter() {
    let filter = RuleFilter::default();
    let mut report = bad_circuit_report();
    filter.apply(&mut report);
    assert!(
        filter.fails(&mut report),
        "seeded errors must fail the lint"
    );
    // The three seeded defect classes plus the unsatisfiable cube.
    let rules: Vec<_> = report.diagnostics().iter().map(|d| d.rule_id).collect();
    for want in [
        "comb-cycle",
        "undriven-net",
        "pi-shadowed",
        "constraint-unsat",
    ] {
        assert!(rules.contains(&want), "missing {want} in {rules:?}");
    }
}

#[test]
fn s27_matches_golden_json_and_passes() {
    let net = fbt_netlist::s27();
    let mut report = lint_netlist(&net);
    assert_eq!(report.to_json() + "\n", golden("s27.json"));
    let filter = RuleFilter::default();
    filter.apply(&mut report);
    assert!(!filter.fails(&mut report), "{:?}", report.diagnostics());
}

/// s9234 is in the set on purpose: each of its 14 `dup-cone` proofs encodes
/// the whole 5,844-node netlist, the largest SAT queries any golden pins.
#[test]
fn every_catalog_golden_matches_in_process() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let file = entry
                .expect("directory entry")
                .file_name()
                .into_string()
                .ok()?;
            let stem = file.strip_suffix(".json")?;
            stem.starts_with('s').then(|| stem.to_string())
        })
        .collect();
    names.sort();
    assert!(names.iter().any(|n| n == "s9234"), "{names:?}");
    for name in names {
        // The CLI's catalog resolution: s27 is the genuine ISCAS89 circuit.
        let net = if name == "s27" {
            fbt_netlist::s27()
        } else {
            let spec = synth::find(&name).unwrap_or_else(|| panic!("{name} is not in the catalog"));
            synth::generate(&spec)
        };
        assert_eq!(
            lint_netlist(&net).to_json() + "\n",
            golden(&format!("{name}.json")),
            "{name}"
        );
    }
}

#[test]
fn reports_are_deterministic_across_runs() {
    let a = bad_circuit_report().to_json();
    let b = bad_circuit_report().to_json();
    assert_eq!(a, b);
}
