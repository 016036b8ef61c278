//! The scalar sequential oracle: one pattern per cycle through the
//! gate-walking interpreter ([`fbt_sim::comb::eval_scalar`]), with
//! switching activity from a node-by-node compare against the previous
//! cycle.
//!
//! Production sequential simulation runs on the compiled kernel —
//! [`fbt_sim::seq::SeqSim`] is a one-lane view of
//! [`fbt_sim::lanes::LaneSeqSim`] — so this reference shares no code with
//! either. The crate's unit tests include this file by path and its
//! integration tests as a module; both name the crate `fbt_sim`.
#![allow(dead_code)] // each including test crate uses a different subset

use fbt_netlist::Netlist;
use fbt_sim::comb;
use fbt_sim::seq::StepResult;
use fbt_sim::Bits;

/// Scalar reference for [`fbt_sim::seq::SeqSim`] and every lane of
/// [`fbt_sim::lanes::LaneSeqSim`].
#[derive(Debug, Clone)]
pub struct ScalarSeqSim<'a> {
    net: &'a Netlist,
    state: Bits,
    vals: Vec<bool>,
    prev_vals: Option<Vec<bool>>,
}

impl<'a> ScalarSeqSim<'a> {
    /// A simulator in `initial_state` with no switching-activity history.
    pub fn new(net: &'a Netlist, initial_state: &Bits) -> Self {
        assert_eq!(initial_state.len(), net.num_dffs(), "state width mismatch");
        ScalarSeqSim {
            net,
            state: initial_state.clone(),
            vals: vec![false; net.num_nodes()],
            prev_vals: None,
        }
    }

    /// The present state.
    pub fn state(&self) -> &Bits {
        &self.state
    }

    /// Every node's value in the most recent cycle, indexed by node id
    /// (all `false` before the first step).
    pub fn node_values(&self) -> &[bool] {
        &self.vals
    }

    /// Force the state and clear the switching-activity history.
    pub fn set_state(&mut self, state: &Bits) {
        assert_eq!(state.len(), self.net.num_dffs(), "state width mismatch");
        self.state = state.clone();
        self.prev_vals = None;
    }

    /// One clock cycle; flip-flops set in `hold` keep their present value.
    pub fn step_holding(&mut self, pi: &Bits, hold: Option<&Bits>) -> StepResult {
        let net = self.net;
        assert_eq!(pi.len(), net.num_inputs(), "PI width mismatch");
        for (i, &id) in net.inputs().iter().enumerate() {
            self.vals[id.index()] = pi.get(i);
        }
        for (i, &id) in net.dffs().iter().enumerate() {
            self.vals[id.index()] = self.state.get(i);
        }
        comb::eval_scalar(net, &mut self.vals);

        let switching_activity = self.prev_vals.as_ref().map(|prev| {
            let toggles = prev.iter().zip(&self.vals).filter(|(a, b)| a != b).count();
            toggles as f64 / net.num_nodes() as f64
        });
        let next_state: Bits = net
            .dffs()
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                if hold.is_some_and(|h| h.get(i)) {
                    self.state.get(i)
                } else {
                    self.vals[net.node(id).fanins()[0].index()]
                }
            })
            .collect();
        let outputs: Bits = net
            .outputs()
            .iter()
            .map(|&o| self.vals[o.index()])
            .collect();

        self.prev_vals = Some(self.vals.clone());
        self.state = next_state.clone();
        StepResult {
            next_state,
            outputs,
            switching_activity,
        }
    }
}

/// Per-sequence reference for [`fbt_sim::activity::peak_activity`]: each
/// sequence stepped alone from `initial_state`, peak of its defined
/// switching activities, maximum over sequences (0.0 when none is defined).
pub fn scalar_peak_activity(net: &Netlist, initial_state: &Bits, sequences: &[Vec<Bits>]) -> f64 {
    let mut peak = 0.0f64;
    for seq in sequences {
        let mut sim = ScalarSeqSim::new(net, initial_state);
        for pi in seq {
            if let Some(swa) = sim.step_holding(pi, None).switching_activity {
                peak = peak.max(swa);
            }
        }
    }
    peak
}
