//! Time-frame expansion: unrolling a [`Netlist`] into CNF.
//!
//! Each *frame* is one combinational evaluation of the circuit: a fresh SAT
//! variable per primary input, a present-state literal per flip-flop and a
//! Tseitin-encoded literal per gate. Frames are stitched together without
//! any extra clauses — the present-state literal of flip-flop `i` at frame
//! `f + 1` *is* the literal of its D-input driver at frame `f`
//! ([`FrameState::FromPrevious`]). Frame 0's state can be left free (ATPG
//! over an arbitrary scan-in state) or fixed to constants (reachability from
//! the all-0 reset state of paper §4.3).
//!
//! Launch/capture and functional-constraint conditions are layered on top:
//! [`Unroller::constrain_pis`] pins the specified positions of a primary
//! input cube (unit clauses per frame), and the `assert_*` helpers pin
//! input vectors or the next-state vector of a reachability target.

use fbt_netlist::{Netlist, NodeId};
use fbt_sim::{Bits, Trit};

use crate::cnf::CnfFormula;
use crate::lit::Lit;
use crate::solver::Model;

/// How a newly pushed frame's present-state (flip-flop) literals are
/// defined.
#[derive(Debug, Clone, Copy)]
pub enum FrameState<'a> {
    /// Fresh free variables: the frame starts from an arbitrary state (used
    /// by ATPG, where the scan-in state is a solver choice).
    Free,
    /// Constants: the frame starts from a known state (used for frame 0 of
    /// reachability queries, fixed to the all-0 reset state).
    Fixed(&'a Bits),
    /// Aliased to the previous frame's next-state literals — the time-frame
    /// stitch. No clauses are added: flip-flop `i`'s literal *is* the
    /// literal of its D-input driver one frame earlier.
    FromPrevious,
}

/// A netlist unrolled over a growing number of time frames.
#[derive(Debug, Clone)]
pub struct Unroller<'a> {
    net: &'a Netlist,
    cnf: CnfFormula,
    /// Per frame, per node: the literal carrying that node's value.
    frames: Vec<Vec<Lit>>,
}

impl<'a> Unroller<'a> {
    /// An unroller with no frames yet.
    pub fn new(net: &'a Netlist) -> Self {
        Unroller {
            net,
            cnf: CnfFormula::new(),
            frames: Vec::new(),
        }
    }

    /// The netlist being unrolled.
    pub fn net(&self) -> &'a Netlist {
        self.net
    }

    /// The formula accumulated so far.
    pub fn cnf(&self) -> &CnfFormula {
        &self.cnf
    }

    /// Mutable access to the formula, for layering extra constraints.
    pub fn cnf_mut(&mut self) -> &mut CnfFormula {
        &mut self.cnf
    }

    /// Append one time frame and return its index.
    ///
    /// # Panics
    ///
    /// Panics if `state` is [`FrameState::FromPrevious`] on the first frame,
    /// or [`FrameState::Fixed`] with a width not matching the DFF count.
    pub fn push_frame(&mut self, state: FrameState<'_>) -> usize {
        let net = self.net;
        let mut lits = vec![Lit(0); net.num_nodes()];
        for &pi in net.inputs() {
            lits[pi.index()] = self.cnf.new_var().pos();
        }
        match state {
            FrameState::Free => {
                for &ff in net.dffs() {
                    lits[ff.index()] = self.cnf.new_var().pos();
                }
            }
            FrameState::Fixed(bits) => {
                assert_eq!(bits.len(), net.num_dffs(), "state width mismatch");
                for (i, &ff) in net.dffs().iter().enumerate() {
                    lits[ff.index()] = self.cnf.constant(bits.get(i));
                }
            }
            FrameState::FromPrevious => {
                let prev = self
                    .frames
                    .last()
                    .expect("FromPrevious needs a prior frame");
                for &ff in net.dffs() {
                    let d = net.node(ff).fanins()[0];
                    lits[ff.index()] = prev[d.index()];
                }
            }
        }
        self.cnf.encode_gates(net, net.eval_order(), &mut lits);
        self.frames.push(lits);
        self.frames.len() - 1
    }

    /// The literal carrying `node`'s value at `frame`.
    pub fn lit(&self, frame: usize, node: NodeId) -> Lit {
        self.frames[frame][node.index()]
    }

    /// The literal of primary input `i` at `frame`.
    pub fn pi_lit(&self, frame: usize, i: usize) -> Lit {
        self.lit(frame, self.net.inputs()[i])
    }

    /// The present-state literal of flip-flop `i` at `frame`.
    pub fn state_lit(&self, frame: usize, i: usize) -> Lit {
        self.lit(frame, self.net.dffs()[i])
    }

    /// The next-state literal of flip-flop `i` at `frame` (its D-input
    /// driver's literal, i.e. the state entering frame `frame + 1`).
    pub fn next_state_lit(&self, frame: usize, i: usize) -> Lit {
        let d = self.net.node(self.net.dffs()[i]).fanins()[0];
        self.lit(frame, d)
    }

    /// Pin the specified positions of a primary-input cube at `frame` with
    /// unit clauses (the functional PI constraints of paper §4.2).
    ///
    /// # Panics
    ///
    /// Panics if the cube's width differs from the PI count.
    pub fn constrain_pis(&mut self, frame: usize, cube: &[Trit]) {
        assert_eq!(cube.len(), self.net.num_inputs(), "PI cube width mismatch");
        for (i, t) in cube.iter().enumerate() {
            if let Some(b) = t.to_bool() {
                let l = self.pi_lit(frame, i);
                self.cnf.add_clause(&[l.xor_neg(!b)]);
            }
        }
    }

    /// Pin every primary input at `frame` to the given vector.
    pub fn assert_pis(&mut self, frame: usize, pis: &Bits) {
        assert_eq!(pis.len(), self.net.num_inputs(), "PI width mismatch");
        for i in 0..pis.len() {
            let l = self.pi_lit(frame, i);
            self.cnf.add_clause(&[l.xor_neg(!pis.get(i))]);
        }
    }

    /// Pin the next state of `frame` (the state entering frame `frame + 1`)
    /// to the given vector — the reachability target constraint.
    pub fn assert_next_state(&mut self, frame: usize, state: &Bits) {
        assert_eq!(state.len(), self.net.num_dffs(), "state width mismatch");
        for i in 0..state.len() {
            let l = self.next_state_lit(frame, i);
            self.cnf.add_clause(&[l.xor_neg(!state.get(i))]);
        }
    }

    /// Extract the primary-input vector of `frame` from a model.
    pub fn pi_values(&self, frame: usize, model: &Model) -> Bits {
        (0..self.net.num_inputs())
            .map(|i| model.lit(self.pi_lit(frame, i)))
            .collect()
    }

    /// Extract the present-state vector of `frame` from a model.
    pub fn state_values(&self, frame: usize, model: &Model) -> Bits {
        (0..self.net.num_dffs())
            .map(|i| model.lit(self.state_lit(frame, i)))
            .collect()
    }

    /// Extract the next-state vector of `frame` from a model.
    pub fn next_state_values(&self, frame: usize, model: &Model) -> Bits {
        (0..self.net.num_dffs())
            .map(|i| model.lit(self.next_state_lit(frame, i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SatResult, Solver};
    use fbt_netlist::rng::Rng;
    use fbt_netlist::s27;
    use fbt_sim::comb;

    fn random_bits(rng: &mut Rng, n: usize) -> Bits {
        (0..n).map(|_| rng.bit()).collect()
    }

    /// Scalar reference: one frame of evaluation → (all node values, next state).
    fn frame_ref(net: &Netlist, pis: &Bits, state: &Bits) -> (Vec<bool>, Bits) {
        let mut vals = vec![false; net.num_nodes()];
        for (i, &id) in net.inputs().iter().enumerate() {
            vals[id.index()] = pis.get(i);
        }
        for (i, &id) in net.dffs().iter().enumerate() {
            vals[id.index()] = state.get(i);
        }
        comb::eval_scalar(net, &mut vals);
        let ns: Bits = net
            .dffs()
            .iter()
            .map(|&d| vals[net.node(d).fanins()[0].index()])
            .collect();
        (vals, ns)
    }

    #[test]
    fn single_frame_matches_scalar_simulation() {
        let net = s27();
        let mut rng = Rng::new(11);
        for _ in 0..16 {
            let pis = random_bits(&mut rng, net.num_inputs());
            let state = random_bits(&mut rng, net.num_dffs());
            let mut u = Unroller::new(&net);
            u.push_frame(FrameState::Fixed(&state));
            u.assert_pis(0, &pis);
            let SatResult::Sat(model) = Solver::from_cnf(u.cnf()).solve() else {
                panic!("fully constrained frame must be satisfiable");
            };
            let (vals, ns) = frame_ref(&net, &pis, &state);
            for id in net.node_ids() {
                assert_eq!(model.lit(u.lit(0, id)), vals[id.index()], "node {id}");
            }
            assert_eq!(u.next_state_values(0, &model), ns);
        }
    }

    #[test]
    fn frame_stitching_matches_multi_cycle_simulation() {
        let net = s27();
        let mut rng = Rng::new(23);
        let k = 5;
        let pis: Vec<Bits> = (0..k)
            .map(|_| random_bits(&mut rng, net.num_inputs()))
            .collect();
        let reset = Bits::zeros(net.num_dffs());
        let mut u = Unroller::new(&net);
        u.push_frame(FrameState::Fixed(&reset));
        for _ in 1..k {
            u.push_frame(FrameState::FromPrevious);
        }
        for (f, v) in pis.iter().enumerate() {
            u.assert_pis(f, v);
        }
        let SatResult::Sat(model) = Solver::from_cnf(u.cnf()).solve() else {
            panic!("constrained unrolling must be satisfiable");
        };
        let mut state = reset;
        for (f, pi) in pis.iter().enumerate() {
            assert_eq!(u.state_values(f, &model), state, "frame {f} state");
            let (_, ns) = frame_ref(&net, pi, &state);
            assert_eq!(u.next_state_values(f, &model), ns, "frame {f} next state");
            state = ns;
        }
    }

    #[test]
    fn free_state_finds_a_distinguishing_assignment() {
        // With a free state, asking for a specific next state is satisfiable
        // exactly when some (state, PI) pair produces it.
        let net = s27();
        let mut u = Unroller::new(&net);
        u.push_frame(FrameState::Free);
        // Find any predecessor of state 111.
        let target = Bits::from_str01("111");
        u.assert_next_state(0, &target);
        match Solver::from_cnf(u.cnf()).solve() {
            SatResult::Sat(model) => {
                let s = u.state_values(0, &model);
                let v = u.pi_values(0, &model);
                let (_, ns) = frame_ref(&net, &v, &s);
                assert_eq!(ns, target, "witness must actually produce the target");
            }
            SatResult::Unsat => {
                // Verify exhaustively that no predecessor exists.
                for s in 0..8u32 {
                    for v in 0..16u32 {
                        let state: Bits = (0..3).map(|i| (s >> i) & 1 == 1).collect();
                        let pis: Bits = (0..4).map(|i| (v >> i) & 1 == 1).collect();
                        let (_, ns) = frame_ref(&net, &pis, &state);
                        assert_ne!(ns, target, "solver missed a predecessor");
                    }
                }
            }
            SatResult::Unknown => panic!("no conflict limit was set"),
        }
    }

    #[test]
    fn pi_cube_constraints_are_respected() {
        let net = s27();
        let cube = vec![Trit::One, Trit::X, Trit::Zero, Trit::X];
        let mut u = Unroller::new(&net);
        u.push_frame(FrameState::Free);
        u.push_frame(FrameState::FromPrevious);
        u.constrain_pis(0, &cube);
        u.constrain_pis(1, &cube);
        let SatResult::Sat(model) = Solver::from_cnf(u.cnf()).solve() else {
            panic!("cube-constrained unrolling must be satisfiable");
        };
        for f in 0..2 {
            let v = u.pi_values(f, &model);
            assert!(v.get(0), "frame {f}: PI 0 pinned to 1");
            assert!(!v.get(2), "frame {f}: PI 2 pinned to 0");
        }
    }

    #[test]
    #[should_panic(expected = "FromPrevious needs a prior frame")]
    fn from_previous_on_first_frame_panics() {
        let net = s27();
        let mut u = Unroller::new(&net);
        u.push_frame(FrameState::FromPrevious);
    }
}
