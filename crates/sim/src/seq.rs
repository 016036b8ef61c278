//! Sequential (cycle-by-cycle) simulation of a netlist in functional mode.

use fbt_netlist::Netlist;

use crate::lanes::{extract_lane, LaneSeqSim};
use crate::Bits;

/// A sequential simulator for one trajectory: the circuit's current state
/// plus the previous cycle's node values (for switching-activity
/// measurement).
///
/// Functional operation per the paper's Section 4.3: at each clock cycle the
/// primary-input vector `p(i)` is applied while the circuit is in state
/// `s(i)`; the flip-flops then capture the next state `s(i+1)`.
///
/// This is the one-lane view of [`LaneSeqSim`], so it runs on the circuit's
/// compiled kernel and reports bit-identical switching activity.
///
/// # Example
///
/// ```
/// use fbt_netlist::s27;
/// use fbt_sim::{seq::SeqSim, Bits};
///
/// let net = s27();
/// let mut sim = SeqSim::new(&net, &Bits::zeros(3));
/// let step = sim.step(&Bits::from_str01("0000"));
/// assert_eq!(step.next_state.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SeqSim<'a> {
    lanes: LaneSeqSim<'a>,
    state: Bits,
}

/// The observable results of one clock cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// The state captured by the flip-flops at the end of the cycle.
    pub next_state: Bits,
    /// Primary-output values during the cycle.
    pub outputs: Bits,
    /// Fraction of lines (all nodes) whose value changed relative to the
    /// previous cycle; `None` on the first cycle after construction or a
    /// state reset (the paper leaves `SWA(0)` undefined).
    pub switching_activity: Option<f64>,
}

impl<'a> SeqSim<'a> {
    /// Create a simulator with the given initial state.
    ///
    /// # Panics
    ///
    /// Panics if `initial_state.len() != net.num_dffs()`.
    pub fn new(net: &'a Netlist, initial_state: &Bits) -> Self {
        let mut lanes = LaneSeqSim::new(net, 1);
        lanes.broadcast_state(initial_state);
        SeqSim {
            lanes,
            state: initial_state.clone(),
        }
    }

    /// The circuit's current state.
    pub fn state(&self) -> &Bits {
        &self.state
    }

    /// Force the state (e.g. scan-in); clears switching-activity history.
    ///
    /// # Panics
    ///
    /// Panics if the width does not match.
    pub fn set_state(&mut self, state: &Bits) {
        self.lanes.broadcast_state(state);
        self.state = state.clone();
    }

    /// Apply one functional clock cycle with input vector `pi`; every
    /// flip-flop captures (see [`SeqSim::step_holding`] to hold some).
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != net.num_inputs()`.
    pub fn step(&mut self, pi: &Bits) -> StepResult {
        self.step_holding(pi, None)
    }

    /// Apply one clock cycle; flip-flops whose bit is set in `hold` do not
    /// capture and keep their present value (the state-holding DFT of the
    /// paper's Section 4.5, Fig. 4.10).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn step_holding(&mut self, pi: &Bits, hold: Option<&Bits>) -> StepResult {
        self.lanes.step_with(|_| pi, hold);
        self.state = self.lanes.lane_state(0);
        StepResult {
            next_state: self.state.clone(),
            outputs: extract_lane(self.lanes.output_words(), 0),
            switching_activity: self.lanes.swa().map(|swa| swa[0]),
        }
    }
}

/// A recorded functional trajectory: the state sequence `s(0), s(1), …, s(L)`
/// traversed under a primary-input sequence `p(0), …, p(L-1)` (paper §4.3),
/// with per-cycle switching activity.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// `states[i]` is `s(i)`; has length `L + 1`.
    pub states: Vec<Bits>,
    /// Primary outputs observed at each cycle; length `L`.
    pub outputs: Vec<Bits>,
    /// `swa[i]` is the switching activity during clock cycle `i`
    /// (`SWA(0)` is undefined and stored as `None`); length `L`.
    pub swa: Vec<Option<f64>>,
}

impl Trajectory {
    /// The peak defined switching activity along the trajectory, or 0.0 if
    /// none is defined.
    pub fn peak_swa(&self) -> f64 {
        self.swa.iter().flatten().fold(0.0f64, |a, &b| a.max(b))
    }
}

/// Simulate the input sequence from `initial_state` and record the
/// trajectory.
///
/// # Panics
///
/// Panics on width mismatches.
pub fn simulate_sequence(net: &Netlist, initial_state: &Bits, pis: &[Bits]) -> Trajectory {
    let mut sim = SeqSim::new(net, initial_state);
    let mut states = Vec::with_capacity(pis.len() + 1);
    let mut outputs = Vec::with_capacity(pis.len());
    let mut swa = Vec::with_capacity(pis.len());
    states.push(initial_state.clone());
    for pi in pis {
        let r = sim.step(pi);
        states.push(r.next_state);
        outputs.push(r.outputs);
        swa.push(r.switching_activity);
    }
    Trajectory {
        states,
        outputs,
        swa,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScalarSeqSim;
    use fbt_netlist::rng::Rng;
    use fbt_netlist::s27;
    use fbt_netlist::synth::{self, CircuitSpec};

    fn random_bits(n: usize, rng: &mut Rng) -> Bits {
        (0..n).map(|_| rng.bit()).collect()
    }

    #[test]
    fn s27_next_state_from_zero() {
        let net = s27();
        let mut sim = SeqSim::new(&net, &Bits::zeros(3));
        let r = sim.step(&Bits::from_str01("0000"));
        // From the comb test: G10=0, G11=0, G13=1 -> next state 001.
        assert_eq!(r.next_state.to_string(), "001");
        assert_eq!(r.outputs.to_string(), "1");
        assert!(r.switching_activity.is_none(), "SWA(0) undefined");
    }

    #[test]
    fn swa_defined_from_second_cycle() {
        let net = s27();
        let mut sim = SeqSim::new(&net, &Bits::zeros(3));
        sim.step(&Bits::from_str01("0000"));
        let r = sim.step(&Bits::from_str01("1111"));
        let swa = r.switching_activity.unwrap();
        assert!(swa > 0.0 && swa <= 1.0);
    }

    #[test]
    fn identical_cycles_have_zero_swa() {
        let net = s27();
        let mut sim = SeqSim::new(&net, &Bits::zeros(3));
        // Drive to a fixed point under constant inputs, then check SWA = 0.
        let pi = Bits::from_str01("0000");
        let mut last = None;
        for _ in 0..8 {
            last = Some(sim.step(&pi));
        }
        // s27 under constant 0 input reaches a cycle; if the state repeats
        // exactly, all node values repeat and SWA is 0.
        let state_before = sim.state().clone();
        let r = sim.step(&pi);
        if r.next_state == state_before {
            assert_eq!(r.switching_activity, Some(0.0));
        }
        let _ = last;
    }

    #[test]
    fn holding_keeps_flip_flop_values() {
        let net = s27();
        let mut sim = SeqSim::new(&net, &Bits::from_str01("101"));
        let mut hold = Bits::zeros(3);
        hold.set(0, true);
        hold.set(2, true);
        let r = sim.step_holding(&Bits::from_str01("0110"), Some(&hold));
        assert!(r.next_state.get(0), "held FF keeps 1");
        assert!(r.next_state.get(2), "held FF keeps 1");
    }

    #[test]
    fn trajectory_records_all_states() {
        let net = s27();
        let pis: Vec<Bits> = (0..5)
            .map(|i| Bits::from_bools(&[(i & 1) == 1, false, true, false]))
            .collect();
        let t = simulate_sequence(&net, &Bits::zeros(3), &pis);
        assert_eq!(t.states.len(), 6);
        assert_eq!(t.outputs.len(), 5);
        assert_eq!(t.swa.len(), 5);
        assert!(t.swa[0].is_none());
        assert!(t.swa[1..].iter().all(Option::is_some));
        assert!(t.peak_swa() <= 1.0);
    }

    #[test]
    fn set_state_resets_swa_history() {
        let net = s27();
        let mut sim = SeqSim::new(&net, &Bits::zeros(3));
        sim.step(&Bits::from_str01("0000"));
        sim.set_state(&Bits::from_str01("111"));
        let r = sim.step(&Bits::from_str01("0000"));
        assert!(r.switching_activity.is_none());
    }

    #[test]
    fn seqsim_matches_the_scalar_oracle_with_holds_and_state_loads() {
        // Every step result — next state, outputs and the exact SWA `f64` —
        // must equal the interpreter oracle's, through hold masks and
        // mid-sequence state loads (which reset the SWA history).
        let mut rng = Rng::new(0x5E0_51A);
        let mut nets = vec![s27()];
        for _ in 0..4 {
            let pi = 2 + rng.below(6);
            let po = 1 + rng.below(4);
            let ff = 1 + rng.below(10);
            let mut spec = CircuitSpec::new("seq", pi, po, ff, 20 + rng.below(150));
            spec.seed = rng.next_u64();
            nets.push(synth::generate(&spec));
        }
        for net in &nets {
            let start = random_bits(net.num_dffs(), &mut rng);
            let mut sim = SeqSim::new(net, &start);
            let mut oracle = ScalarSeqSim::new(net, &start);
            for c in 0..40 {
                if c % 13 == 7 {
                    let load = random_bits(net.num_dffs(), &mut rng);
                    sim.set_state(&load);
                    oracle.set_state(&load);
                }
                let pi = random_bits(net.num_inputs(), &mut rng);
                let hold = (c % 3 == 1).then(|| random_bits(net.num_dffs(), &mut rng));
                let got = sim.step_holding(&pi, hold.as_ref());
                let want = oracle.step_holding(&pi, hold.as_ref());
                assert_eq!(got, want, "{} cycle {c}", net.name());
                assert_eq!(
                    got.switching_activity.is_none(),
                    c == 0 || c % 13 == 7,
                    "{} cycle {c}: SWA defined except after a state load",
                    net.name()
                );
                assert_eq!(sim.state(), oracle.state());
            }
        }
    }

    #[test]
    fn simulate_sequence_matches_the_scalar_oracle() {
        let net = synth::generate(&synth::find("s298").unwrap());
        let mut rng = Rng::new(0x7EA);
        let start = random_bits(net.num_dffs(), &mut rng);
        let pis: Vec<Bits> = (0..50)
            .map(|_| random_bits(net.num_inputs(), &mut rng))
            .collect();
        let t = simulate_sequence(&net, &start, &pis);
        let mut oracle = ScalarSeqSim::new(&net, &start);
        for (c, pi) in pis.iter().enumerate() {
            let want = oracle.step_holding(pi, None);
            assert_eq!(t.states[c + 1], want.next_state, "cycle {c}");
            assert_eq!(t.outputs[c], want.outputs, "cycle {c}");
            assert_eq!(t.swa[c], want.switching_activity, "cycle {c}");
        }
    }
}
