//! Duplicate logic-cone detection: structural hashing proposes candidate
//! pairs, a SAT XOR-miter confirms equivalence.
//!
//! Structural hashing canonicalizes each gate as `(kind, fanin keys)` —
//! sorting fanin keys for commutative kinds — and interns the keys, so two
//! gates with the same key compute the same function of the same sources
//! by construction. The candidates are nevertheless confirmed with an
//! XOR-miter UNSAT proof through `fbt-sat`, making the rule's evidence
//! machine-checked rather than hash-trusted (and catching any future drift
//! between hash canonicalization and gate semantics).

use std::collections::HashMap;

use fbt_netlist::{GateKind, Netlist, NodeId};
use fbt_sat::{CnfFormula, Solver, Var};

use crate::diag::{shortlex, Diagnostic, LintReport, Severity};

/// Cap on reported duplicate pairs (each costs one SAT solve).
const PAIR_CAP: usize = 25;

/// Structurally duplicate gate pairs `(kept, duplicate)` in first-seen
/// order, before SAT confirmation.
pub fn candidate_pairs(net: &Netlist) -> Vec<(usize, usize)> {
    let n = net.num_nodes();
    // Key per node: sources are unique, gates intern (kind, fanin keys).
    let mut key = vec![usize::MAX; n];
    let mut interned: HashMap<(GateKind, Vec<usize>), usize> = HashMap::new();
    let mut first_node: HashMap<usize, usize> = HashMap::new();
    let mut pairs = Vec::new();
    let mut next_key = 0usize;
    for id in net.node_ids() {
        let node = net.node(id);
        if node.kind().is_source() {
            key[id.index()] = next_key;
            next_key += 1;
            continue;
        }
        let mut fanin_keys: Vec<usize> = node.fanins().iter().map(|f| key[f.index()]).collect();
        if !node.kind().is_unate_single() {
            fanin_keys.sort_unstable(); // commutative kinds
        }
        let entry = (node.kind(), fanin_keys);
        match interned.get(&entry) {
            Some(&k) => {
                key[id.index()] = k;
                pairs.push((first_node[&k], id.index()));
            }
            None => {
                interned.insert(entry, next_key);
                first_node.insert(next_key, id.index());
                key[id.index()] = next_key;
                next_key += 1;
            }
        }
    }
    pairs
}

/// Prove two nodes equivalent with an XOR miter over one combinational
/// frame (sources free). Only the union of the two fanin cones is encoded:
/// nothing outside it can tell the nodes apart. `true` means UNSAT — no
/// assignment distinguishes them.
pub fn confirm_equivalent(net: &Netlist, a: usize, b: usize) -> bool {
    let mut in_cone = net.fanin_cone(NodeId(a as u32));
    for (x, y) in in_cone.iter_mut().zip(net.fanin_cone(NodeId(b as u32))) {
        *x |= y;
    }
    let mut cnf = CnfFormula::new();
    // Slots outside the cones keep a placeholder the encoder never reads.
    let mut lits = vec![Var(0).pos(); net.num_nodes()];
    for id in net.node_ids() {
        if in_cone[id.index()] && net.node(id).kind().is_source() {
            lits[id.index()] = cnf.new_var().pos();
        }
    }
    let gates: Vec<NodeId> = net
        .eval_order()
        .iter()
        .copied()
        .filter(|g| in_cone[g.index()])
        .collect();
    cnf.encode_gates(net, &gates, &mut lits);
    let m = cnf.new_var();
    cnf.xor2_gate(m.pos(), lits[a], lits[b]);
    cnf.add_clause(&[m.pos()]);
    Solver::from_cnf(&cnf).solve().is_unsat()
}

/// `dup-cone`: report SAT-confirmed structurally duplicate gates. Only the
/// first 25 pairs, in shortlex order of the duplicate's name, are proved
/// and shown.
pub fn run(net: &Netlist, report: &mut LintReport) {
    let mut pairs = candidate_pairs(net);
    pairs.sort_by_key(|&(_, dup)| shortlex(net.node_name(NodeId(dup as u32))));
    let extra = pairs.len().saturating_sub(PAIR_CAP);
    for &(kept, dup) in pairs.iter().take(PAIR_CAP) {
        if !confirm_equivalent(net, kept, dup) {
            // Structural duplicates are equivalent by construction; reaching
            // here would mean the hash and the CNF encoding disagree.
            continue;
        }
        let dup_id = NodeId(dup as u32);
        let kept_id = NodeId(kept as u32);
        report.push(
            Diagnostic::new(
                "dup-cone",
                Severity::Warning,
                format!("{}:{}", net.name(), net.node_name(dup_id)),
                format!(
                    "gate `{}` duplicates `{}` (SAT-confirmed equivalent)",
                    net.node_name(dup_id),
                    net.node_name(kept_id)
                ),
            )
            .with_help("merge the duplicate cones; redundant logic inflates fault lists"),
        );
    }
    if extra > 0 {
        report.push(Diagnostic::new(
            "dup-cone",
            Severity::Note,
            net.name().to_string(),
            format!("{extra} additional `dup-cone` finding(s) suppressed"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::NetlistBuilder;

    #[test]
    fn literal_duplicate_found_and_confirmed() {
        let mut b = NetlistBuilder::new("dup");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate(GateKind::And, "x", &["a", "c"]).unwrap();
        b.gate(GateKind::And, "y", &["c", "a"]).unwrap(); // commuted
        b.gate(GateKind::Or, "z", &["x", "y"]).unwrap();
        b.output("z").unwrap();
        let net = b.finish().unwrap();
        let mut r = LintReport::new("dup");
        run(&net, &mut r);
        assert_eq!(r.diagnostics().len(), 1);
        let d = &r.diagnostics()[0];
        assert_eq!(d.rule_id, "dup-cone");
        assert!(
            d.message.contains("`y`") && d.message.contains("`x`"),
            "{}",
            d.message
        );
    }

    #[test]
    fn chained_duplicates_dedupe_transitively() {
        // Two parallel NOT chains off the same input: both levels duplicate.
        let mut b = NetlistBuilder::new("chain");
        b.input("a").unwrap();
        b.gate(GateKind::Not, "n1", &["a"]).unwrap();
        b.gate(GateKind::Not, "n2", &["a"]).unwrap();
        b.gate(GateKind::Buf, "b1", &["n1"]).unwrap();
        b.gate(GateKind::Buf, "b2", &["n2"]).unwrap();
        b.gate(GateKind::Or, "y", &["b1", "b2"]).unwrap();
        b.output("y").unwrap();
        let net = b.finish().unwrap();
        let pairs = candidate_pairs(&net);
        // n2 duplicates n1; b2 duplicates b1 (through the duplicate key).
        assert_eq!(pairs.len(), 2);
        for &(x, y) in &pairs {
            assert!(confirm_equivalent(&net, x, y));
        }
    }

    #[test]
    fn different_functions_are_not_candidates() {
        let mut b = NetlistBuilder::new("no");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate(GateKind::And, "x", &["a", "c"]).unwrap();
        b.gate(GateKind::Or, "y", &["a", "c"]).unwrap();
        b.gate(GateKind::Xor, "z", &["x", "y"]).unwrap();
        b.output("z").unwrap();
        let net = b.finish().unwrap();
        assert!(candidate_pairs(&net).is_empty());
        assert!(!confirm_equivalent(&net, 2, 3)); // AND vs OR differ
    }

    #[test]
    fn s27_has_no_duplicate_cones() {
        let net = fbt_netlist::s27();
        let mut r = LintReport::new("s27");
        run(&net, &mut r);
        assert!(r.is_empty(), "{:?}", r.diagnostics());
    }
}
