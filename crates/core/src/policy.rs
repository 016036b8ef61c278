//! Admissibility policies for the unified [`crate::engine::GenerationEngine`].
//!
//! A policy decides how much of a candidate primary-input segment may be
//! applied: the constrained method truncates at the first clock cycle whose
//! switching activity would exceed `SWAfunc` (paper §4.4), the §5.1
//! signal-transition-pattern metric truncates at the first non-functional
//! pattern ([`crate::stp::StpLibrary`]), and the baseline unconstrained
//! method of \[73\] never truncates at all. All three are implementations of
//! one trait, so the engine's seed-search loop is written once.
//!
//! A policy never simulates. The engine clocks a whole speculative round as
//! the lanes of one [`LaneSeqSim`] and asks the policy about each lane in
//! one of two ways: from the lane's finished switching-activity trace
//! ([`AdmissibilityPolicy::admissible_prefix_from_trace`], enough for the
//! `SWAfunc` bound), or cycle by cycle from the simulator's previous and
//! current packed node words ([`AdmissibilityPolicy::inadmissible_lanes`],
//! which signal-transition patterns need).
//!
//! Truncation geometry is shared by every bounded policy: a violation at
//! cycle `v` (the paper's `j+1`) leaves the usable prefix `p(0) … p(j-1)`
//! of `v-1` cycles, rounded down to even so the segment ends at the final
//! state of its last test; a clean trajectory keeps its full (even) length.

use fbt_sim::lanes::LaneSeqSim;

/// The decision rule that truncates a candidate segment.
///
/// Implementations must be pure functions of their inputs: the engine
/// evaluates candidates speculatively, re-evaluates requeued seeds against
/// later snapshots and commits results in draw order, so a
/// non-deterministic policy would break the bit-identical-to-serial
/// guarantee of [`crate::search`].
pub trait AdmissibilityPolicy: Sync {
    /// Logic-simulated cycles charged for the admissibility probe of one
    /// full-length candidate (the engine adds the accepted prefix's replay
    /// on top). Policies that simulate the whole candidate charge `seq_len`;
    /// [`Unbounded`] charges nothing because it never simulates.
    fn probe_cycles(&self, seq_len: usize) -> usize {
        seq_len
    }

    /// The admissible prefix as a pure function of a candidate's per-cycle
    /// switching-activity trace (`total` cycles), or `None` if the trace
    /// does not bound it. The engine keeps the shorter of this prefix and
    /// the one [`AdmissibilityPolicy::inadmissible_lanes`] leaves.
    fn admissible_prefix_from_trace(&self, swa: &[Option<f64>], total: usize) -> Option<usize> {
        let _ = (swa, total);
        None
    }

    /// The lanes among `live` (bit `l` = lane `l`) whose most recent cycle
    /// in `sim` is inadmissible, judged from
    /// [`LaneSeqSim::prev_node_words`] and [`LaneSeqSim::node_words`]. The
    /// engine calls this after every cycle, including the first after a
    /// state load (when the previous words are empty), and drops a lane
    /// from `live` once it is rejected. The default admits every cycle.
    fn inadmissible_lanes(&self, sim: &LaneSeqSim<'_>, live: u64) -> u64 {
        let _ = (sim, live);
        0
    }
}

/// The shared truncation geometry: the longest even prefix of a candidate
/// of `total` cycles whose first inadmissible cycle is `violation`.
pub(crate) fn prefix_before(violation: Option<usize>, total: usize) -> usize {
    match violation {
        // Violation at cycle v (paper's j+1): usable prefix is
        // p(0) … p(j-1), i.e. v-1 cycles, rounded down to even.
        Some(v) => (v.saturating_sub(1)) & !1usize,
        None => total & !1usize,
    }
}

/// The longest even admissible prefix given the per-cycle switching
/// activities of a candidate trajectory of `total` cycles.
pub(crate) fn admissible_prefix_from_swa(swa: &[Option<f64>], total: usize, bound: f64) -> usize {
    prefix_before(
        swa.iter()
            .position(|s| s.is_some_and(|v| v > bound + 1e-12)),
        total,
    )
}

/// Switching-activity bound (the paper's §4.4 rule): every measurable clock
/// cycle's switching activity must stay within `bound` (`SWAfunc`).
#[derive(Debug, Clone, Copy)]
pub struct SwaRule {
    /// The activity bound in force (`SWAfunc`).
    pub bound: f64,
}

impl AdmissibilityPolicy for SwaRule {
    fn admissible_prefix_from_trace(&self, swa: &[Option<f64>], total: usize) -> Option<usize> {
        Some(admissible_prefix_from_swa(swa, total, self.bound))
    }
}

/// No admissibility constraint — the unconstrained method of \[73\] (§4.3).
/// Every candidate keeps its full (even) length and no probe simulation is
/// charged.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unbounded;

impl AdmissibilityPolicy for Unbounded {
    fn probe_cycles(&self, _seq_len: usize) -> usize {
        0
    }

    fn admissible_prefix_from_trace(&self, _swa: &[Option<f64>], total: usize) -> Option<usize> {
        Some(total & !1usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StateOverlay;
    use fbt_netlist::{s27, Netlist};
    use fbt_sim::seq::{simulate_sequence, SeqSim};
    use fbt_sim::Bits;

    fn pis(n: usize) -> Vec<Bits> {
        (0..n)
            .map(|i| Bits::from_bools(&[i % 2 == 0, i % 3 == 0, i % 5 != 0, true]))
            .collect()
    }

    /// The pre-refactor `constrained::SwaRule::admissible_prefix`, verbatim.
    fn old_constrained_prefix(net: &Netlist, bound: f64, start: &Bits, pis: &[Bits]) -> usize {
        let traj = simulate_sequence(net, start, pis);
        match traj
            .swa
            .iter()
            .position(|s| s.is_some_and(|v| v > bound + 1e-12))
        {
            Some(v) => (v.saturating_sub(1)) & !1usize,
            None => pis.len() & !1usize,
        }
    }

    /// The pre-refactor `holding::admissible_prefix_holding`, verbatim.
    fn old_holding_prefix(
        net: &Netlist,
        bound: f64,
        start: &Bits,
        pis: &[Bits],
        mask: &Bits,
        h: u32,
    ) -> usize {
        let mut sim = SeqSim::new(net, start);
        let mut swa = Vec::with_capacity(pis.len());
        for (c, pi) in pis.iter().enumerate() {
            let hold = (c as u64 & ((1 << h) - 1) == 0).then_some(mask);
            swa.push(sim.step_holding(pi, hold).switching_activity);
        }
        match swa
            .iter()
            .position(|s| s.is_some_and(|v| v > bound + 1e-12))
        {
            Some(v) => (v.saturating_sub(1)) & !1usize,
            None => pis.len() & !1usize,
        }
    }

    /// The prefix the engine derives for `pis` applied from `start` under
    /// `overlay`: the policy's trace rule over the simulated trajectory.
    fn trace_prefix(
        rule: &dyn AdmissibilityPolicy,
        net: &Netlist,
        start: &Bits,
        pis: &[Bits],
        overlay: &StateOverlay,
    ) -> usize {
        let (_, swa) = overlay.simulate(net, start, pis);
        rule.admissible_prefix_from_trace(&swa, pis.len())
            .expect("a trace rule")
    }

    #[test]
    fn swa_rule_pins_the_old_constrained_behavior() {
        // The deduplicated rule (SwaRule over the identity overlay) must
        // agree with the pre-refactor implementation on every bound, for
        // both truncated and full-length outcomes.
        let net = s27();
        let zero = Bits::zeros(3);
        let p = pis(31);
        for bound in [0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 1.0] {
            let rule = SwaRule { bound };
            let new = trace_prefix(&rule, &net, &zero, &p, &StateOverlay::Identity);
            let old = old_constrained_prefix(&net, bound, &zero, &p);
            assert_eq!(new, old, "bound {bound}");
            assert_eq!(new % 2, 0);
            assert!(new <= p.len());
        }
    }

    #[test]
    fn swa_rule_pins_the_old_holding_behavior() {
        // The same rule over a Hold overlay must agree with the pre-refactor
        // `admissible_prefix_holding` — one geometry, two trajectories.
        let net = s27();
        let zero = Bits::zeros(3);
        let p = pis(24);
        let mut mask = Bits::zeros(3);
        mask.set(0, true);
        mask.set(2, true);
        for h in [1u32, 2] {
            let overlay = StateOverlay::Hold {
                mask: mask.clone(),
                h,
            };
            for bound in [0.0, 0.05, 0.1, 0.2, 0.35, 1.0] {
                let rule = SwaRule { bound };
                let new = trace_prefix(&rule, &net, &zero, &p, &overlay);
                let old = old_holding_prefix(&net, bound, &zero, &p, &mask, h);
                assert_eq!(new, old, "bound {bound} h {h}");
            }
        }
    }

    #[test]
    fn violation_geometry_is_even_and_excludes_the_violating_cycle() {
        // Synthetic activities: violation at cycle index 5 leaves the 4-cycle
        // prefix; at index 1 or 0 leaves nothing.
        let mk = |v: usize, n: usize| -> Vec<Option<f64>> {
            (0..n)
                .map(|i| Some(if i == v { 0.9 } else { 0.1 }))
                .collect()
        };
        assert_eq!(admissible_prefix_from_swa(&mk(5, 10), 10, 0.5), 4);
        assert_eq!(admissible_prefix_from_swa(&mk(4, 10), 10, 0.5), 2);
        assert_eq!(admissible_prefix_from_swa(&mk(1, 10), 10, 0.5), 0);
        assert_eq!(admissible_prefix_from_swa(&mk(0, 10), 10, 0.5), 0);
        // No violation: full length, rounded down to even.
        assert_eq!(admissible_prefix_from_swa(&mk(11, 10), 10, 0.5), 10);
        assert_eq!(admissible_prefix_from_swa(&mk(11, 9), 9, 0.5), 8);
        // Immeasurable cycles (None) never violate.
        let none = vec![None; 6];
        assert_eq!(admissible_prefix_from_swa(&none, 6, 0.0), 6);
    }

    #[test]
    fn unbounded_keeps_the_full_even_length_for_free() {
        assert_eq!(Unbounded.admissible_prefix_from_trace(&[], 12), Some(12));
        assert_eq!(Unbounded.admissible_prefix_from_trace(&[], 13), Some(12));
        assert_eq!(Unbounded.probe_cycles(60), 0);
        assert_eq!(SwaRule { bound: 0.5 }.probe_cycles(60), 60);
    }
}
