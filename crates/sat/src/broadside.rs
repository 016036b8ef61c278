//! SAT encoding of broadside transition-fault detection.
//!
//! A broadside test `<s1, v1, s2, v2>` detects a transition fault on line
//! `g` when (paper §1.2, and exactly the contract of
//! `fbt_fault::engine::FaultSimEngine`):
//!
//! 1. **launch** — the first pattern establishes the fault's initial value
//!    on `g`, and
//! 2. **capture** — under the second pattern, the corresponding stuck-at
//!    fault on `g` is observed at a primary output or a flip-flop D input.
//!
//! [`solve_transition_fault`] and [`solve_tpdf`] are the two entry points.
//! Both unroll the circuit over two stitched frames (launch = frame 0,
//! capture = frame 1 with the state aliased from frame 0's next-state
//! literals — the broadside property `s2 = next(s1, v1)` is structural, not
//! clausal) and then add, per required fault:
//!
//! * a unit clause pinning the frame-0 value of `g` to the initial value;
//! * a *faulty copy* of frame 1 restricted to `g`'s fanout cone, with `g`
//!   forced to the stuck value;
//! * difference indicators `d_c → faulty(c) ≠ good(c)` for every observable
//!   cone node `c`, and the clause `⋁ d_c` asserting observation.
//!
//! A model is a broadside test detecting every required fault; `Unsat` is a
//! proof that no scan-in state and input pair detects them — for a single
//! fault, an **untestability proof** under the broadside transition-fault
//! model. Requiring all faults of `TR(fp)` simultaneously yields the
//! transition path delay fault criterion of paper §2.2.

use fbt_netlist::Netlist;

use fbt_fault::{BroadsideTest, TransitionFault, TransitionPathDelayFault};

use crate::lit::Lit;
use crate::solver::{SatResult, Solver, SolverStats};
use crate::unroll::{FrameState, Unroller};

/// Outcome of a SAT-based test-generation query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionVerdict {
    /// A broadside test detecting every required fault.
    Test(BroadsideTest),
    /// Proven: no broadside test (over any scan-in state satisfying the
    /// encoding's constraints) detects the required faults.
    Untestable,
    /// The conflict budget ran out before a verdict.
    Unknown,
}

/// A two-frame broadside encoding with accumulating detection requirements.
struct BroadsideEncoding<'a> {
    net: &'a Netlist,
    unroller: Unroller<'a>,
    /// Observation points: PO drivers and flip-flop D-input drivers.
    observable: Vec<bool>,
}

impl<'a> BroadsideEncoding<'a> {
    /// Encode two stitched frames over a free scan-in state.
    fn new(net: &'a Netlist) -> Self {
        let mut unroller = Unroller::new(net);
        unroller.push_frame(FrameState::Free);
        unroller.push_frame(FrameState::FromPrevious);
        let mut observable = vec![false; net.num_nodes()];
        for &o in net.outputs() {
            observable[o.index()] = true;
        }
        for &d in net.dffs() {
            observable[net.node(d).fanins()[0].index()] = true;
        }
        BroadsideEncoding {
            net,
            unroller,
            observable,
        }
    }

    /// Require that the encoded test detect `fault`.
    ///
    /// Calling this for several faults requires a *single* test detecting
    /// all of them — the building block of the TPDF criterion.
    fn require_detection(&mut self, fault: &TransitionFault) {
        let net = self.net;
        let g = fault.line;
        let init = fault.transition.initial_value();

        // Launch: frame-0 value of g equals the fault's initial value.
        let launch = self.unroller.lit(0, g);
        self.unroller.cnf_mut().add_clause(&[launch.xor_neg(!init)]);

        // Faulty copy of frame 1 over g's fanout cone, g stuck at `init`;
        // outside the cone it reads the fault-free capture frame.
        let cone = net.fanout_cone(g);
        debug_assert_eq!(cone[0], g, "fanout cone starts at its seed");
        let mut faulty: Vec<Lit> = net.node_ids().map(|id| self.unroller.lit(1, id)).collect();
        let cnf = self.unroller.cnf_mut();
        faulty[g.index()] = cnf.constant(init);
        cnf.encode_gates(net, &cone[1..], &mut faulty);

        // Observation: some observable cone node differs between the faulty
        // and fault-free capture frames. One-directional indicators suffice:
        // the solver must *raise* some d_c, and d_c forces a difference.
        let mut indicators: Vec<Lit> = Vec::new();
        for &c in &cone {
            if !self.observable[c.index()] {
                continue;
            }
            let d = self.unroller.cnf_mut().new_var().pos();
            let fv = faulty[c.index()];
            let gv = self.unroller.lit(1, c);
            self.unroller.cnf_mut().add_clause(&[!d, fv, gv]);
            self.unroller.cnf_mut().add_clause(&[!d, !fv, !gv]);
            indicators.push(d);
        }
        // No observable node in the cone ⇒ the empty clause: untestable.
        self.unroller.cnf_mut().add_clause(&indicators);
    }

    /// Require detection of a transition path delay fault: every transition
    /// fault along the path must be detected by the same test (paper §2.2).
    fn require_tpdf_detection(&mut self, fault: &TransitionPathDelayFault) {
        for tf in fault.transition_faults(self.net) {
            self.require_detection(&tf);
        }
    }

    /// Solve the accumulated encoding. `conflict_limit` bounds the search
    /// (`None` = run to completion); the returned stats come from this
    /// query's solver.
    fn solve(&self, conflict_limit: Option<u64>) -> (DetectionVerdict, SolverStats) {
        let mut solver = Solver::from_cnf(self.unroller.cnf());
        let result = match conflict_limit {
            Some(limit) => solver.solve_limited(limit),
            None => solver.solve(),
        };
        let verdict = match result {
            SatResult::Sat(model) => {
                let s1 = self.unroller.state_values(0, &model);
                let v1 = self.unroller.pi_values(0, &model);
                let v2 = self.unroller.pi_values(1, &model);
                DetectionVerdict::Test(BroadsideTest::new(s1, v1, v2))
            }
            SatResult::Unsat => DetectionVerdict::Untestable,
            SatResult::Unknown => DetectionVerdict::Unknown,
        };
        (verdict, solver.stats)
    }
}

/// Generate a broadside test for one transition fault (or prove it
/// untestable) over a free scan-in state.
pub fn solve_transition_fault(
    net: &Netlist,
    fault: &TransitionFault,
    conflict_limit: Option<u64>,
) -> (DetectionVerdict, SolverStats) {
    let mut enc = BroadsideEncoding::new(net);
    enc.require_detection(fault);
    enc.solve(conflict_limit)
}

/// Generate a broadside test for a transition path delay fault (or prove it
/// untestable) over a free scan-in state.
pub fn solve_tpdf(
    net: &Netlist,
    fault: &TransitionPathDelayFault,
    conflict_limit: Option<u64>,
) -> (DetectionVerdict, SolverStats) {
    let mut enc = BroadsideEncoding::new(net);
    enc.require_tpdf_detection(fault);
    enc.solve(conflict_limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_fault::engine::{FaultSimEngine, PackedParallelSim};
    use fbt_fault::{all_transition_faults, Transition};
    use fbt_netlist::{s27, GateKind, NetlistBuilder};

    #[test]
    fn every_sat_test_detects_its_fault_on_s27() {
        let net = s27();
        let mut sim = PackedParallelSim::new(&net);
        let mut sat = 0;
        for fault in all_transition_faults(&net) {
            let (verdict, _) = solve_transition_fault(&net, &fault, None);
            match verdict {
                DetectionVerdict::Test(t) => {
                    sat += 1;
                    assert!(sim.detects(&t, &fault), "SAT test must detect {fault}");
                }
                DetectionVerdict::Untestable => {}
                DetectionVerdict::Unknown => panic!("no conflict limit was set"),
            }
        }
        assert!(sat > 0, "s27 has testable transition faults");
    }

    #[test]
    fn unobservable_line_is_untestable() {
        // A gate feeding nothing observable: x drives only a dangling buffer
        // chain is impossible (outputs are required), so instead build a
        // circuit where one input never reaches an output and check its
        // faults are proven untestable.
        let mut b = NetlistBuilder::new("dead");
        b.input("a").unwrap();
        b.input("b").unwrap();
        b.gate(GateKind::Buf, "x", &["b"]).unwrap();
        b.gate(GateKind::And, "y", &["a", "a"]).unwrap();
        b.output("y").unwrap();
        let net = b.finish().unwrap();
        let x = net.find("x").unwrap();
        for tr in [Transition::Rise, Transition::Fall] {
            let (verdict, _) = solve_transition_fault(&net, &TransitionFault::new(x, tr), None);
            assert_eq!(verdict, DetectionVerdict::Untestable);
        }
    }

    #[test]
    fn conflict_limit_yields_unknown_or_verdict() {
        let net = s27();
        let mut sim = PackedParallelSim::new(&net);
        for fault in all_transition_faults(&net) {
            let (limited, _) = solve_transition_fault(&net, &fault, Some(1));
            let (full, _) = solve_transition_fault(&net, &fault, None);
            assert_ne!(full, DetectionVerdict::Unknown);
            // With one conflict allowed each query either finishes trivially
            // or reports Unknown — never a wrong verdict.
            match &limited {
                DetectionVerdict::Test(t) => assert!(sim.detects(t, &fault), "{fault}"),
                DetectionVerdict::Untestable => assert_eq!(full, limited, "{fault}"),
                DetectionVerdict::Unknown => {}
            }
        }
    }

    #[test]
    fn tpdf_verdicts_match_table_2_1_counts() {
        // s27's complete TPDF set: 23 of 56 faults detectable (Table 2.1).
        let net = s27();
        let paths = fbt_fault::path::enumerate_paths(&net, usize::MAX);
        let faults = fbt_fault::path::tpdf_list(&paths);
        assert_eq!(faults.len(), 56);
        let mut testable = 0;
        let mut untestable = 0;
        let mut sim = PackedParallelSim::new(&net);
        for f in &faults {
            let (verdict, _) = solve_tpdf(&net, f, None);
            match verdict {
                DetectionVerdict::Test(t) => {
                    testable += 1;
                    for tf in f.transition_faults(&net) {
                        assert!(sim.detects(&t, &tf), "TPDF test must detect {tf}");
                    }
                }
                DetectionVerdict::Untestable => untestable += 1,
                DetectionVerdict::Unknown => panic!("no conflict limit was set"),
            }
        }
        assert_eq!((testable, untestable), (23, 33));
    }
}
