//! The two-frame combinational model of a broadside test (paper §1.3).
//!
//! Frame 1 evaluates the circuit under `<s1, v1>`; frame 2 under
//! `<s2, v2>` where every frame-2 flip-flop value is tied to the frame-1
//! value of its D-input driver. Faults live in frame 2 (the launch/capture
//! frame); frame 1 only establishes launch conditions.

use fbt_fault::{Transition, TransitionFault};
use fbt_netlist::{GateKind, Netlist, NodeId};
use fbt_sim::{tv, Trit};

use crate::TestCube;

/// Which time frame a variable lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frame {
    /// The first pattern `<s1, v1>`.
    First,
    /// The second pattern `<s2, v2>`.
    Second,
}

/// The variable id of `node` in `frame`, for a circuit with `n_nodes` nodes.
#[inline]
pub fn var_of(n_nodes: usize, frame: Frame, node: NodeId) -> usize {
    match frame {
        Frame::First => node.index(),
        Frame::Second => n_nodes + node.index(),
    }
}

/// Decompose a variable id back into `(frame, node)`.
#[inline]
pub fn var_parts(n_nodes: usize, var: usize) -> (Frame, NodeId) {
    if var < n_nodes {
        (Frame::First, NodeId(var as u32))
    } else {
        (Frame::Second, NodeId((var - n_nodes) as u32))
    }
}

/// The status of a target fault under the current (partial) assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStatus {
    /// A definite fault effect reaches an observable point for *every*
    /// completion of the unspecified inputs.
    Detected,
    /// Not yet decided; pursuing the contained objective makes progress.
    Possible(Objective),
    /// No completion of the current assignments can detect the fault.
    Impossible,
}

/// A value objective on a (possibly internal) line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Objective {
    /// Variable to justify.
    pub var: usize,
    /// Desired value.
    pub value: bool,
}

/// The two-frame three-valued value model.
#[derive(Debug, Clone)]
pub struct TwoFrame<'a> {
    net: &'a Netlist,
    n: usize,
    /// Good-circuit values, `2 * n` entries.
    good: Vec<Trit>,
    /// Frame-2 faulty-plane scratch buffer.
    faulty: Vec<Trit>,
    /// Frame-2 observability (PO driver or D-input driver).
    observable: Vec<bool>,
    /// The decision variables: frame-1 PIs, frame-1 PPIs, frame-2 PIs.
    input_vars: Vec<usize>,
}

impl<'a> TwoFrame<'a> {
    /// Create an all-X model.
    pub fn new(net: &'a Netlist) -> Self {
        let n = net.num_nodes();
        let mut observable = vec![false; n];
        for &o in net.outputs() {
            observable[o.index()] = true;
        }
        for &d in net.dffs() {
            observable[net.node(d).fanins()[0].index()] = true;
        }
        let mut input_vars = Vec::with_capacity(net.num_inputs() * 2 + net.num_dffs());
        for &pi in net.inputs() {
            input_vars.push(var_of(n, Frame::First, pi));
        }
        for &ff in net.dffs() {
            input_vars.push(var_of(n, Frame::First, ff));
        }
        for &pi in net.inputs() {
            input_vars.push(var_of(n, Frame::Second, pi));
        }
        TwoFrame {
            net,
            n,
            good: vec![Trit::X; 2 * n],
            faulty: vec![Trit::X; n],
            observable,
            input_vars,
        }
    }

    /// The underlying netlist.
    pub fn net(&self) -> &Netlist {
        self.net
    }

    /// Number of nodes per frame.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The decision variables, in backtrace-stop order.
    pub fn input_vars(&self) -> &[usize] {
        &self.input_vars
    }

    /// Is `var` a decision variable (frame-1 PI/PPI or frame-2 PI)?
    pub fn is_input_var(&self, var: usize) -> bool {
        let (frame, node) = var_parts(self.n, var);
        matches!(
            (frame, self.net.node(node).kind()),
            (_, GateKind::Input) | (Frame::First, GateKind::Dff)
        )
    }

    /// Current good value of a variable.
    #[inline]
    pub fn value(&self, var: usize) -> Trit {
        self.good[var]
    }

    /// Set an input variable (no propagation; call [`TwoFrame::forward`]).
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a decision variable.
    pub fn set_input(&mut self, var: usize, value: Trit) {
        assert!(self.is_input_var(var), "var {var} is not an input variable");
        self.good[var] = value;
    }

    /// Clear all values to X.
    pub fn clear(&mut self) {
        self.good.fill(Trit::X);
    }

    /// Load a test cube onto the decision variables (clears first).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn load_cube(&mut self, cube: &TestCube) {
        assert_eq!(cube.v1.len(), self.net.num_inputs(), "v1 width");
        assert_eq!(cube.s1.len(), self.net.num_dffs(), "s1 width");
        self.clear();
        for (i, &pi) in self.net.inputs().iter().enumerate() {
            self.good[var_of(self.n, Frame::First, pi)] = cube.v1[i];
            self.good[var_of(self.n, Frame::Second, pi)] = cube.v2[i];
        }
        for (i, &ff) in self.net.dffs().iter().enumerate() {
            self.good[var_of(self.n, Frame::First, ff)] = cube.s1[i];
        }
    }

    /// Extract the current decision-variable assignments as a cube.
    pub fn cube(&self) -> TestCube {
        TestCube {
            s1: self
                .net
                .dffs()
                .iter()
                .map(|&ff| self.good[var_of(self.n, Frame::First, ff)])
                .collect(),
            v1: self
                .net
                .inputs()
                .iter()
                .map(|&pi| self.good[var_of(self.n, Frame::First, pi)])
                .collect(),
            v2: self
                .net
                .inputs()
                .iter()
                .map(|&pi| self.good[var_of(self.n, Frame::Second, pi)])
                .collect(),
        }
    }

    /// Recompute all gate values from the current input assignments: frame 1,
    /// the flip-flop link, then frame 2.
    pub fn forward(&mut self) {
        let n = self.n;
        for &id in self.net.eval_order() {
            let node = self.net.node(id);
            self.good[id.index()] = tv::eval_gate_tv(
                node.kind(),
                node.fanins().iter().map(|f| self.good[f.index()]),
            );
        }
        for &d in self.net.dffs() {
            let drv = self.net.node(d).fanins()[0];
            self.good[n + d.index()] = self.good[drv.index()];
        }
        for &id in self.net.eval_order() {
            let node = self.net.node(id);
            self.good[n + id.index()] = tv::eval_gate_tv(
                node.kind(),
                node.fanins().iter().map(|f| self.good[n + f.index()]),
            );
        }
    }

    /// Compute the status of a transition fault under the current good
    /// values (call [`TwoFrame::forward`] first).
    pub fn fault_status(&mut self, fault: &TransitionFault) -> FaultStatus {
        let n = self.n;
        let g = fault.line;
        let init = fault.transition.initial_value();
        let fin = fault.transition.final_value();

        // Launch condition in frame 1.
        match self.good[g.index()].to_bool() {
            Some(v) if v != init => return FaultStatus::Impossible,
            None => {
                return FaultStatus::Possible(Objective {
                    var: var_of(n, Frame::First, g),
                    value: init,
                })
            }
            Some(_) => {}
        }
        // Fault-free final value in frame 2.
        match self.good[n + g.index()].to_bool() {
            Some(v) if v != fin => return FaultStatus::Impossible,
            None => {
                return FaultStatus::Possible(Objective {
                    var: var_of(n, Frame::Second, g),
                    value: fin,
                })
            }
            Some(_) => {}
        }

        // Faulty plane over frame 2: g stuck at the initial value.
        self.faulty.clear();
        self.faulty.extend_from_slice(&self.good[n..]);
        self.faulty[g.index()] = Trit::from_bool(init);
        for &id in self.net.eval_order() {
            if id == g {
                continue;
            }
            let node = self.net.node(id);
            self.faulty[id.index()] = tv::eval_gate_tv(
                node.kind(),
                node.fanins().iter().map(|f| self.faulty[f.index()]),
            );
        }

        // Definite detection?
        let definite_d = |good: Trit, faulty: Trit| -> bool {
            matches!((good.to_bool(), faulty.to_bool()), (Some(a), Some(b)) if a != b)
        };
        for id in self.net.node_ids() {
            if self.observable[id.index()]
                && definite_d(self.good[n + id.index()], self.faulty[id.index()])
            {
                return FaultStatus::Detected;
            }
        }

        // Can a fault effect still reach an observable point? A node can
        // carry one in the future if it has a definite D now, or if either
        // plane is X. Propagate "reaches an observable maybe-D node" back
        // through frame 2.
        let maybe = |idx: usize| -> bool {
            definite_d(self.good[n + idx], self.faulty[idx])
                || self.good[n + idx] == Trit::X
                || self.faulty[idx] == Trit::X
        };
        let mut reaches = vec![false; n];
        for &id in self.net.eval_order().iter().rev() {
            let i = id.index();
            if !maybe(i) {
                continue;
            }
            if self.observable[i] {
                reaches[i] = true;
                continue;
            }
            reaches[i] = self
                .net
                .node(id)
                .fanouts()
                .iter()
                .any(|&fo| !self.net.node(fo).kind().is_source() && reaches[fo.index()]);
        }
        // Sources (the fault may sit on a PI or state line).
        {
            let i = g.index();
            if self.net.node(g).kind().is_source() && maybe(i) {
                reaches[i] =
                    self.observable[i]
                        || self.net.node(g).fanouts().iter().any(|&fo| {
                            !self.net.node(fo).kind().is_source() && reaches[fo.index()]
                        });
            }
        }

        // D-frontier: gates whose output is not yet a definite D but which
        // have a definite-D fanin, and which can still reach an observable.
        let mut best: Option<(u32, Objective)> = None;
        for &id in self.net.eval_order() {
            let i = id.index();
            if !reaches[i] || definite_d(self.good[n + i], self.faulty[i]) {
                continue;
            }
            if self.good[n + i] != Trit::X && self.faulty[i] != Trit::X {
                continue; // fully determined, equal: blocked
            }
            let node = self.net.node(id);
            let has_d_input = node
                .fanins()
                .iter()
                .any(|f| definite_d(self.good[n + f.index()], self.faulty[f.index()]));
            if !has_d_input {
                continue;
            }
            // Objective: set an unspecified side input to the
            // non-controlling value (or an arbitrary value for XOR-class).
            let side = node
                .fanins()
                .iter()
                .find(|f| self.good[n + f.index()] == Trit::X);
            if let Some(&side) = side {
                let value = match node.kind().controlling_value() {
                    Some(c) => !c,
                    None => false,
                };
                let obj = Objective {
                    var: var_of(n, Frame::Second, side),
                    value,
                };
                let lvl = self.net.level(id);
                if best.is_none_or(|(l, _)| lvl < l) {
                    best = Some((lvl, obj));
                }
            }
        }
        if let Some((_, obj)) = best {
            return FaultStatus::Possible(obj);
        }

        // No definite detection and no workable frontier. If the fault site
        // itself still reaches an observable point through X values the
        // situation may be resolved by other assignments; give the search an
        // objective only through the frontier, otherwise declare impossible.
        FaultStatus::Impossible
    }

    /// Backtrace an objective to an unassigned decision variable, flipping
    /// polarity through inverting gates (PODEM backtrace).
    ///
    /// Returns `None` when every path from the objective is already fully
    /// specified (the objective cannot be justified by new assignments).
    pub fn backtrace(&self, obj: Objective) -> Option<(usize, bool)> {
        let n = self.n;
        let mut var = obj.var;
        let mut value = obj.value;
        loop {
            if self.is_input_var(var) {
                if self.good[var] == Trit::X {
                    return Some((var, value));
                }
                return None; // already assigned: cannot justify here
            }
            let (frame, node) = var_parts(n, var);
            let nd = self.net.node(node);
            match (frame, nd.kind()) {
                (Frame::Second, GateKind::Dff) => {
                    // Cross into frame 1 through the D input.
                    var = var_of(n, Frame::First, nd.fanins()[0]);
                }
                (_, GateKind::Not) => {
                    var = var_of(n, frame, nd.fanins()[0]);
                    value = !value;
                }
                (_, GateKind::Buf) => {
                    var = var_of(n, frame, nd.fanins()[0]);
                }
                (_, kind) => {
                    let base = |node: NodeId| var_of(n, frame, node);
                    // Effective AND/OR demand after folding the inversion.
                    let (all_needed, each_value) = match kind {
                        GateKind::And => (value, true),
                        GateKind::Nand => (!value, true),
                        GateKind::Or => (!value, false),
                        GateKind::Nor => (value, false),
                        GateKind::Xor | GateKind::Xnor => {
                            // Pick any unspecified input; the demanded parity
                            // can always be fixed up by that input.
                            let side = nd
                                .fanins()
                                .iter()
                                .find(|f| self.good[base(**f)] == Trit::X)?;
                            let parity: bool = nd
                                .fanins()
                                .iter()
                                .filter(|f| **f != *side)
                                .map(|f| self.good[base(*f)].to_bool().unwrap_or(false))
                                .fold(false, |a, b| a ^ b);
                            let invert = kind == GateKind::Xnor;
                            var = base(*side);
                            value = value ^ parity ^ invert;
                            continue;
                        }
                        _ => unreachable!("sources handled above"),
                    };
                    if all_needed {
                        // Every input must take `each_value`: walk into any
                        // unspecified one.
                        let side = nd
                            .fanins()
                            .iter()
                            .find(|f| self.good[base(**f)] == Trit::X)?;
                        var = base(*side);
                        value = each_value;
                    } else {
                        // One input taking `!each_value` suffices: choose the
                        // unspecified input with the shallowest logic.
                        let side = nd
                            .fanins()
                            .iter()
                            .filter(|f| self.good[base(**f)] == Trit::X)
                            .min_by_key(|f| self.net.level(**f))?;
                        var = base(*side);
                        value = !each_value;
                    }
                }
            }
        }
    }
}

/// Convenience: the transition fault a path-position implies (re-exported
/// here for the TPDF pipeline).
pub fn tf(line: NodeId, t: Transition) -> TransitionFault {
    TransitionFault::new(line, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::s27;
    use fbt_sim::Bits;

    #[test]
    fn forward_matches_scalar_two_frame() {
        let net = s27();
        let mut tfm = TwoFrame::new(&net);
        let cube = TestCube {
            s1: vec![Trit::Zero, Trit::Zero, Trit::One],
            v1: vec![Trit::Zero; 4],
            v2: vec![Trit::One; 4],
        };
        tfm.load_cube(&cube);
        tfm.forward();
        // Compare against the broadside semantics from fbt-fault.
        let t = cube.fill(false);
        let s2 = t.second_state(&net);
        for (i, &ff) in net.dffs().iter().enumerate() {
            assert_eq!(
                tfm.value(var_of(net.num_nodes(), Frame::Second, ff)),
                Trit::from_bool(s2.get(i))
            );
        }
    }

    #[test]
    fn fully_specified_status_matches_fault_simulator() {
        // For fully specified cubes, Detected <-> the fault simulator agrees.
        let net = s27();
        let mut tfm = TwoFrame::new(&net);
        use fbt_fault::FaultSimEngine;
        let mut fsim = fbt_fault::PackedParallelSim::new(&net);
        let faults = fbt_fault::all_transition_faults(&net);
        let mut rng = fbt_netlist::rng::Rng::new(17);
        for _ in 0..25 {
            let s1: Bits = (0..3).map(|_| rng.bit()).collect();
            let v1: Bits = (0..4).map(|_| rng.bit()).collect();
            let v2: Bits = (0..4).map(|_| rng.bit()).collect();
            let test = fbt_fault::BroadsideTest::new(s1, v1, v2);
            let cube = TestCube::from(&test);
            tfm.load_cube(&cube);
            tfm.forward();
            for f in &faults {
                let status = tfm.fault_status(f);
                let detected = fsim.detects(&test, f);
                match status {
                    FaultStatus::Detected => assert!(detected, "fault {f}"),
                    FaultStatus::Impossible => assert!(!detected, "fault {f}"),
                    FaultStatus::Possible(_) => {
                        panic!("fully specified cube left fault {f} undecided")
                    }
                }
            }
        }
    }

    #[test]
    fn unspecified_cube_gives_objectives() {
        let net = s27();
        let mut tfm = TwoFrame::new(&net);
        tfm.load_cube(&TestCube::unspecified(&net));
        tfm.forward();
        let g14 = net.find("G14").unwrap();
        let status = tfm.fault_status(&TransitionFault::new(g14, Transition::Rise));
        match status {
            FaultStatus::Possible(obj) => {
                // First objective: launch value in frame 1.
                assert_eq!(obj.var, var_of(net.num_nodes(), Frame::First, g14));
                assert!(!obj.value); // rise -> initial 0
            }
            other => panic!("expected Possible, got {other:?}"),
        }
    }

    #[test]
    fn backtrace_reaches_an_input() {
        let net = s27();
        let mut tfm = TwoFrame::new(&net);
        tfm.load_cube(&TestCube::unspecified(&net));
        tfm.forward();
        // Objective: G14 (NOT of PI G0) = 0 in frame 1 -> decision G0 = 1.
        let g14 = net.find("G14").unwrap();
        let g0 = net.find("G0").unwrap();
        let n = net.num_nodes();
        let got = tfm
            .backtrace(Objective {
                var: var_of(n, Frame::First, g14),
                value: false,
            })
            .unwrap();
        assert_eq!(got, (var_of(n, Frame::First, g0), true));
    }

    #[test]
    fn backtrace_crosses_frames_through_dff() {
        let net = s27();
        let mut tfm = TwoFrame::new(&net);
        tfm.load_cube(&TestCube::unspecified(&net));
        tfm.forward();
        let n = net.num_nodes();
        // Frame-2 value of DFF G5 is justified through frame-1 G10.
        let g5 = net.find("G5").unwrap();
        let (var, _) = tfm
            .backtrace(Objective {
                var: var_of(n, Frame::Second, g5),
                value: true,
            })
            .unwrap();
        let (frame, _) = var_parts(n, var);
        assert_eq!(frame, Frame::First, "decision must land in frame 1");
        assert!(tfm.is_input_var(var));
    }
}
