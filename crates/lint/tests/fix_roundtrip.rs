//! Integration coverage for the rewrite API and the fix engine: every fix
//! kind must round-trip through `.bench` emit → parse, preserve PI/PO/FF
//! ordering, and a deliberately wrong rewrite must be caught by the miter.

use fbt_lint::fix::{certify_rewrite, Certified};
use fbt_lint::{fix_bench_text, FixConfig};
use fbt_netlist::bench;
use fbt_netlist::rewrite::Rewrite;
use fbt_netlist::{GateKind, NetlistBuilder};

/// A circuit exercising every autofix rule at once: an undriven reference,
/// a constant cone feeding live logic, a buffer/inverter chain, a duplicate
/// cone, and dead logic.
const MESSY: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
f = DFF(y)
na = NOT(a)
k0 = AND(a, na)
u = OR(b, k0)
b1 = BUFF(u)
b2 = BUFF(b1)
b3 = NOT(b2)
d1 = AND(a, f)
d2 = AND(a, f)
y = OR(d1, b3)
z = OR(d2, ghost)
dead = XOR(a, b)
dead2 = NOT(dead)
";

#[test]
fn every_fix_kind_round_trips_through_bench() {
    let out = fix_bench_text(MESSY, "messy", &FixConfig::default()).expect("parses");
    assert!(out.net_changed(), "the messy circuit must be repaired");
    assert!(out.refuted.is_empty(), "{:?}", out.refuted);
    let rules: Vec<&str> = out.applied.iter().map(|f| f.rule).collect();
    for rule in [
        "undriven-stub",
        "const-fold",
        "chain-collapse",
        "dup-dedup",
        "dead-cone",
    ] {
        assert!(rules.contains(&rule), "missing {rule} in {rules:?}");
    }

    let repaired = out.repaired.as_ref().expect("repaired circuit");
    // Emit → parse → emit is a fixpoint of the serializer.
    let text = bench::write(repaired);
    let reparsed = bench::parse(&text, repaired.name()).expect("emitted bench parses");
    assert_eq!(bench::write(&reparsed), text, "serializer fixpoint");
    assert_eq!(
        fbt_sim::kernel::structural_digest(repaired),
        fbt_sim::kernel::structural_digest(&reparsed),
        "round-trip preserves the structure"
    );
}

#[test]
fn repair_preserves_interface_ordering() {
    let out = fix_bench_text(MESSY, "messy", &FixConfig::default()).expect("parses");
    let repaired = out.repaired.as_ref().expect("repaired circuit");

    // Original PIs first, in order; stubbed inputs appended after them.
    let pis: Vec<&str> = repaired
        .inputs()
        .iter()
        .map(|&i| repaired.node_name(i))
        .collect();
    assert_eq!(&pis[..2], &["a", "b"]);
    assert_eq!(out.stubbed_inputs, vec!["ghost".to_string()]);
    assert!(pis.contains(&"ghost"));

    // POs keep their names and order.
    let pos: Vec<&str> = repaired
        .outputs()
        .iter()
        .map(|&o| repaired.node_name(o))
        .collect();
    assert_eq!(pos, vec!["y", "z"]);

    // FFs keep their names and order.
    let ffs: Vec<&str> = repaired
        .dffs()
        .iter()
        .map(|&d| repaired.node_name(d))
        .collect();
    assert_eq!(ffs, vec!["f"]);
}

#[test]
fn provenance_accounts_for_every_original_name() {
    let out = fix_bench_text(MESSY, "messy", &FixConfig::default()).expect("parses");
    let repaired = out.repaired.as_ref().expect("repaired circuit");
    // Dead logic vanishes without a replacement; live names survive or are
    // redirected onto a surviving representative.
    assert_eq!(out.provenance.get("dead"), Some(&None));
    assert_eq!(out.provenance.get("dead2"), Some(&None));
    for name in ["a", "b", "f", "y", "z"] {
        assert_eq!(
            out.provenance.get(name),
            Some(&Some(name.to_string())),
            "interface names map to themselves"
        );
    }
    for (old, new) in &out.provenance {
        if let Some(new) = new {
            assert!(
                repaired.find(new).is_some(),
                "provenance target {new} of {old} must survive"
            );
        }
    }
}

#[test]
fn miter_rejects_a_deliberately_wrong_rewrite() {
    let mut b = NetlistBuilder::new("wrong");
    b.input("a").unwrap();
    b.input("c").unwrap();
    b.gate(GateKind::And, "y", &["a", "c"]).unwrap();
    b.output("y").unwrap();
    let net = b.finish().unwrap();

    let mut rw = Rewrite::new();
    rw.redefine("y", GateKind::Or, vec!["a".to_string(), "c".to_string()]);
    match certify_rewrite(&net, &rw).expect("rewrite applies") {
        Certified::Equivalent(_) => panic!("AND -> OR must be refuted"),
        Certified::Refuted(witness) => {
            let rendered = witness.render();
            assert!(
                rendered.contains("a=") && rendered.contains("c="),
                "witness must assign the inputs: {rendered}"
            );
        }
    }

    // The same machinery accepts a genuinely equivalent rewrite.
    let mut rw = Rewrite::new();
    rw.redefine("y", GateKind::And, vec!["c".to_string(), "a".to_string()]);
    assert!(matches!(
        certify_rewrite(&net, &rw).expect("rewrite applies"),
        Certified::Equivalent(_)
    ));
}
