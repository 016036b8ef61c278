//! Necessary assignments and input necessary assignments (paper §2.3.2 and
//! §3.2).
//!
//! The necessary assignments of a fault are values every test for it must
//! assign; *input* necessary assignments are their restriction to the input
//! variables of the two-frame model. They identify undetectable faults
//! without test generation, seed the search procedures of Chapter 2, and are
//! fed to static timing analysis in Chapter 3 (`set_case_analysis`).

use std::collections::HashSet;

use fbt_fault::{TransitionFault, TransitionPathDelayFault};
use fbt_netlist::{GateKind, Netlist};
use fbt_sim::Trit;

use crate::frames::{var_of, var_parts, Frame};
use crate::implic::Implicator;

/// An assignment `variable = value` in the two-frame model.
pub type VarAssign = (usize, bool);

/// The outcome of the necessary-assignment analysis of one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Analysis {
    /// The fault is undetectable: its detection conditions are
    /// contradictory.
    Undetectable,
    /// The fault is *potentially detectable*: every test for it must make
    /// these assignments.
    Potential(NecessarySets),
}

/// The assignment sets produced for a potentially detectable fault.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NecessarySets {
    /// All necessary assignments (`DetCon`), on any line.
    pub det_con: Vec<VarAssign>,
    /// The input necessary assignments (`InNecAssign`): primary inputs under
    /// both patterns, present-state variables under both patterns.
    pub input_necessary: Vec<VarAssign>,
}

impl Analysis {
    /// The sets, if potentially detectable.
    pub fn sets(&self) -> Option<&NecessarySets> {
        match self {
            Analysis::Potential(s) => Some(s),
            Analysis::Undetectable => None,
        }
    }

    /// Whether the fault was proven undetectable.
    pub fn is_undetectable(&self) -> bool {
        matches!(self, Analysis::Undetectable)
    }
}

/// Is `var` an "input" for the purpose of input necessary assignments:
/// a primary input in either frame, or a state variable in either frame
/// (frame-2 state values are implied by frame 1 but are still reported, as
/// in §3.2)?
pub fn is_reportable_input(net: &Netlist, var: usize) -> bool {
    let (_, node) = var_parts(net.num_nodes(), var);
    matches!(net.node(node).kind(), GateKind::Input | GateKind::Dff)
}

/// Necessary assignments of a single transition fault: `g = v` under the
/// first pattern, `g = v'` under the second, plus all their direct forward
/// and backward implications.
pub fn transition_fault_analysis(net: &Netlist, fault: &TransitionFault) -> Analysis {
    let mut imp = Implicator::new(net);
    match apply_tf(net, &mut imp, fault) {
        Ok(()) => Analysis::Potential(collect(net, &imp)),
        Err(()) => Analysis::Undetectable,
    }
}

fn apply_tf(net: &Netlist, imp: &mut Implicator<'_>, fault: &TransitionFault) -> Result<(), ()> {
    let n = net.num_nodes();
    imp.assign(
        var_of(n, Frame::First, fault.line),
        fault.transition.initial_value(),
    )
    .map_err(|_| ())?;
    imp.assign(
        var_of(n, Frame::Second, fault.line),
        fault.transition.final_value(),
    )
    .map_err(|_| ())?;
    Ok(())
}

fn collect(net: &Netlist, imp: &Implicator<'_>) -> NecessarySets {
    let n = net.num_nodes();
    let mut det_con = Vec::new();
    let mut input_necessary = Vec::new();
    for var in 0..2 * n {
        if let Some(v) = imp.value(var).to_bool() {
            det_con.push((var, v));
            if is_reportable_input(net, var) {
                input_necessary.push((var, v));
            }
        }
    }
    NecessarySets {
        det_con,
        input_necessary,
    }
}

/// Four-step analysis of a transition path delay fault (paper §3.2):
///
/// 1. undetectable if any of its transition faults is in
///    `known_undetectable_tfs` (found by deterministic test generation);
/// 2. merge the necessary assignments of all transition faults along the
///    path; a conflict proves the fault undetectable;
/// 3. add the propagation conditions: every off-path gate input takes its
///    non-controlling value under the second pattern;
/// 4. probe every remaining unspecified input with both values; if both
///    conflict the fault is undetectable, if exactly one conflicts the other
///    becomes an input necessary assignment — iterated to a fixpoint.
pub fn tpdf_analysis(
    net: &Netlist,
    fault: &TransitionPathDelayFault,
    known_undetectable_tfs: &HashSet<TransitionFault>,
) -> Analysis {
    let n = net.num_nodes();
    let trs = fault.transition_faults(net);

    // Step 1.
    if trs.iter().any(|t| known_undetectable_tfs.contains(t)) {
        return Analysis::Undetectable;
    }

    // Step 2.
    let mut imp = Implicator::new(net);
    for t in &trs {
        if apply_tf(net, &mut imp, t).is_err() {
            return Analysis::Undetectable;
        }
    }

    // Step 3: off-path inputs take non-controlling values under pattern 2.
    let path = fault.path.nodes();
    for w in path.windows(2) {
        let (on_path, gate) = (w[0], w[1]);
        let node = net.node(gate);
        let Some(c) = node.kind().controlling_value() else {
            continue; // XOR-class and single-input gates have none
        };
        for &side in node.fanins() {
            if side == on_path {
                continue;
            }
            if imp.assign(var_of(n, Frame::Second, side), !c).is_err() {
                return Analysis::Undetectable;
            }
        }
    }

    // Step 4: probe unspecified inputs.
    let probe_vars: Vec<usize> = (0..2 * n)
        .filter(|&v| is_reportable_input(net, v))
        .collect();
    loop {
        let mut changed = false;
        for &var in &probe_vars {
            if imp.value(var) != Trit::X {
                continue;
            }
            // The frame-2 value of a state variable cannot be assigned
            // freely under a broadside test; still probe it — implications
            // through the frame link keep the analysis sound.
            let mark = imp.checkpoint();
            let zero_ok = imp.assign(var, false).is_ok();
            imp.rollback(mark);
            let one_ok = imp.assign(var, true).is_ok();
            imp.rollback(mark);
            match (zero_ok, one_ok) {
                (false, false) => return Analysis::Undetectable,
                (true, false) => {
                    if imp.assign(var, false).is_err() {
                        return Analysis::Undetectable;
                    }
                    changed = true;
                }
                (false, true) => {
                    if imp.assign(var, true).is_err() {
                        return Analysis::Undetectable;
                    }
                    changed = true;
                }
                (true, true) => {}
            }
        }
        if !changed {
            break;
        }
    }

    Analysis::Potential(collect(net, &imp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_fault::{Path, Transition};
    use fbt_netlist::NetlistBuilder;

    /// The dissertation's Fig. 2.1 circuit: c -> d(NOT) -> e(AND with a DFF
    /// loop b = DFF(e), c = NOT? — modelled faithfully below:
    /// e = AND(d, b); d = NOT(c); b = DFF(e); c driven so that e=0 in frame 1
    /// implies c=0 in frame 2... We reproduce the *published conclusion*:
    /// the path c-d-e with a rising transition at c is undetectable because
    /// the necessary assignments of the faults on c and e conflict.
    fn fig21() -> (Netlist, Path) {
        let mut b = NetlistBuilder::new("fig21");
        b.input("a").unwrap();
        // b is a state variable fed by e; c is b's value buffered (creating
        // the cross-frame dependency of the figure).
        b.dff("bq", "e").unwrap();
        b.gate(GateKind::Buf, "c", &["bq"]).unwrap();
        b.gate(GateKind::Not, "d", &["c"]).unwrap();
        b.gate(GateKind::Nand, "e", &["d", "a"]).unwrap();
        b.output("e").unwrap();
        let net = b.finish().unwrap();
        let path = Path::new(
            &net,
            vec![
                net.find("c").unwrap(),
                net.find("d").unwrap(),
                net.find("e").unwrap(),
            ],
        );
        (net, path)
    }

    use fbt_netlist::GateKind;
    use fbt_netlist::Netlist;

    #[test]
    fn fig21_path_is_undetectable() {
        let (net, path) = fig21();
        // Rising transition at c: needs c=0@1, c=1@2. Transition faults
        // along c-d-e: c rise, d fall, e rise. e rise needs e=0@1 -> bq=0@2
        // -> c=0@2: conflict with c=1@2.
        let f = TransitionPathDelayFault::new(path, Transition::Rise);
        let analysis = tpdf_analysis(&net, &f, &HashSet::new());
        assert!(analysis.is_undetectable(), "Fig. 2.1 conflict not found");
    }

    #[test]
    fn single_tf_analysis_reports_inputs() {
        let net = fbt_netlist::s27();
        let n = net.num_nodes();
        let g14 = net.find("G14").unwrap();
        let g0 = net.find("G0").unwrap();
        // G14 = NOT(G0): rising G14 needs G14=0@1 (G0=1@1), G14=1@2 (G0=0@2).
        let a = transition_fault_analysis(&net, &TransitionFault::new(g14, Transition::Rise));
        let sets = a.sets().expect("detectable");
        assert!(sets
            .input_necessary
            .contains(&(var_of(n, Frame::First, g0), true)));
        assert!(sets
            .input_necessary
            .contains(&(var_of(n, Frame::Second, g0), false)));
    }

    #[test]
    fn every_generated_test_satisfies_input_necessary_assignments() {
        // The defining property: any test that detects the fault agrees
        // with every input necessary assignment.
        let net = fbt_netlist::s27();
        let n = net.num_nodes();
        let faults = fbt_fault::all_transition_faults(&net);
        use fbt_fault::FaultSimEngine;
        let mut fsim = fbt_fault::PackedParallelSim::new(&net);
        let mut rng = fbt_netlist::rng::Rng::new(41);
        let tests: Vec<fbt_fault::BroadsideTest> = (0..200)
            .map(|_| {
                fbt_fault::BroadsideTest::new(
                    (0..3).map(|_| rng.bit()).collect(),
                    (0..4).map(|_| rng.bit()).collect(),
                    (0..4).map(|_| rng.bit()).collect(),
                )
            })
            .collect();
        for f in &faults {
            let Analysis::Potential(sets) = transition_fault_analysis(&net, f) else {
                continue;
            };
            for t in &tests {
                if !fsim.detects(t, f) {
                    continue;
                }
                // Evaluate the test's value on each reported input var.
                for &(var, val) in &sets.input_necessary {
                    let (frame, node) = var_parts(n, var);
                    let actual = match (frame, net.node(node).kind()) {
                        (Frame::First, GateKind::Input) => {
                            let i = net.inputs().iter().position(|&p| p == node).unwrap();
                            t.v1.get(i)
                        }
                        (Frame::Second, GateKind::Input) => {
                            let i = net.inputs().iter().position(|&p| p == node).unwrap();
                            t.v2.get(i)
                        }
                        (Frame::First, GateKind::Dff) => {
                            let i = net.dffs().iter().position(|&d| d == node).unwrap();
                            t.scan_in.get(i)
                        }
                        (Frame::Second, GateKind::Dff) => {
                            let i = net.dffs().iter().position(|&d| d == node).unwrap();
                            t.second_state(&net).get(i)
                        }
                        _ => unreachable!("reportable inputs only"),
                    };
                    assert_eq!(
                        actual, val,
                        "test detecting {f} violates necessary assignment on var {var}"
                    );
                }
            }
        }
    }

    #[test]
    fn merged_conflicts_mark_undetectable() {
        // A path through an inverter pair where the launch requirement on
        // the source conflicts with the side-value requirement at the sink.
        let mut b = NetlistBuilder::new("conf");
        b.input("x").unwrap();
        b.gate(GateKind::Not, "y", &["x"]).unwrap();
        b.gate(GateKind::And, "z", &["x", "y"]).unwrap();
        b.output("z").unwrap();
        let net = b.finish().unwrap();
        // Path x-z rising: needs z=1@2 -> x=1 and y=1 -> x=0: conflict.
        let path = Path::new(&net, vec![net.find("x").unwrap(), net.find("z").unwrap()]);
        let f = TransitionPathDelayFault::new(path, Transition::Rise);
        assert!(tpdf_analysis(&net, &f, &HashSet::new()).is_undetectable());
    }

    #[test]
    fn known_undetectable_tf_short_circuits() {
        let net = fbt_netlist::s27();
        let paths = fbt_fault::path::enumerate_paths(&net, 5);
        let f = TransitionPathDelayFault::new(paths[0].clone(), Transition::Rise);
        let mut known = HashSet::new();
        known.insert(f.transition_faults(&net)[0]);
        assert!(tpdf_analysis(&net, &f, &known).is_undetectable());
    }
}
