//! Multi-clock-domain operation — the paper's third §5.1 future-work item.
//!
//! "For circuits with multiple clock domains, the frequency difference
//! between clock domains must be taken into account during on-chip test
//! generation. The clock domains should operate at their own speeds so that
//! reachable states can be obtained properly."
//!
//! This module implements that investigation's substrate: a clock-domain
//! overlay on a netlist, multi-rate functional simulation in which each
//! domain's flip-flops capture only on their own clock ticks (so traversed
//! states are reachable under multi-rate operation), classification of
//! transition faults into intra- and inter-domain, and extraction of
//! functional broadside tests for one domain at its own rate — the
//! single-domain building block the paper says multi-cycle test application
//! would be built from.

use fbt_fault::{TransitionFault, TwoPatternTest};
use fbt_netlist::Netlist;
use fbt_sim::seq::SeqSim;
use fbt_sim::Bits;

/// A clock-domain overlay: every flip-flop belongs to one domain, and each
/// domain's clock ticks once every `period` base cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockDomains {
    /// Domain index per flip-flop (in `net.dffs()` order).
    assignment: Vec<usize>,
    /// Tick period per domain, in base (fastest) cycles; the fastest domain
    /// has period 1.
    periods: Vec<usize>,
}

impl ClockDomains {
    /// Create an overlay.
    ///
    /// # Panics
    ///
    /// Panics if any domain index is out of range, any period is zero, or no
    /// domain has period 1 (there must be a fastest domain defining the base
    /// rate).
    pub fn new(assignment: Vec<usize>, periods: Vec<usize>) -> Self {
        assert!(
            assignment.iter().all(|&d| d < periods.len()),
            "domain index out of range"
        );
        assert!(periods.iter().all(|&p| p > 0), "periods must be positive");
        assert!(
            periods.contains(&1),
            "some domain must run at the base rate"
        );
        ClockDomains {
            assignment,
            periods,
        }
    }

    /// A single-domain overlay (every flip-flop at the base rate) —
    /// multi-rate simulation then degenerates to plain operation.
    pub fn single(n_ff: usize) -> Self {
        ClockDomains {
            assignment: vec![0; n_ff],
            periods: vec![1],
        }
    }

    /// The domain of flip-flop `ff`.
    pub fn domain_of(&self, ff: usize) -> usize {
        self.assignment[ff]
    }

    /// Does domain `d` capture on base cycle `cycle`?
    pub fn ticks(&self, d: usize, cycle: usize) -> bool {
        cycle.is_multiple_of(self.periods[d])
    }

    /// The hold mask for base cycle `cycle`: flip-flops whose domain does
    /// *not* tick keep their value.
    pub fn hold_mask(&self, cycle: usize) -> Bits {
        self.assignment
            .iter()
            .map(|&d| !self.ticks(d, cycle))
            .collect()
    }
}

/// A multi-rate functional trajectory.
#[derive(Debug, Clone)]
pub struct MultiRateTrajectory {
    /// `states[i]` before base cycle `i`; length `L + 1`.
    pub states: Vec<Bits>,
    /// Per-base-cycle switching activity (`None` where undefined).
    pub swa: Vec<Option<f64>>,
}

/// Simulate `pis` (one vector per base cycle) with each domain capturing at
/// its own rate. All traversed states are reachable under multi-rate
/// functional operation by construction.
///
/// # Panics
///
/// Panics on width mismatches.
pub fn simulate_multi_rate(
    net: &Netlist,
    domains: &ClockDomains,
    initial: &Bits,
    pis: &[Bits],
) -> MultiRateTrajectory {
    assert_eq!(domains.assignment.len(), net.num_dffs(), "overlay width");
    let mut sim = SeqSim::new(net, initial);
    let mut states = Vec::with_capacity(pis.len() + 1);
    let mut swa = Vec::with_capacity(pis.len());
    states.push(initial.clone());
    for (c, pi) in pis.iter().enumerate() {
        let mask = domains.hold_mask(c);
        let r = sim.step_holding(pi, Some(&mask));
        states.push(r.next_state);
        swa.push(r.switching_activity);
    }
    MultiRateTrajectory { states, swa }
}

/// Classify the faults of a fault list into intra-domain (launchable and
/// capturable within one domain) and inter-domain (the fault's cone crosses
/// domains, needing the paper's multi-cycle inter-domain tests).
///
/// A fault is *intra-domain in `d`* when every flip-flop that can capture
/// its effect belongs to `d`; observation at a primary output counts as
/// intra for any domain.
pub fn classify_faults(
    net: &Netlist,
    domains: &ClockDomains,
    faults: &[TransitionFault],
) -> (Vec<TransitionFault>, Vec<TransitionFault>) {
    // For each node: the set of domains among the flip-flops it can reach.
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for &f in faults {
        let cone = net.fanout_cone(f.line);
        let mut domains_seen: Vec<usize> = Vec::new();
        for &c in &cone {
            for (i, &d) in net.dffs().iter().enumerate() {
                if net.node(d).fanins()[0] == c {
                    let dom = domains.domain_of(i);
                    if !domains_seen.contains(&dom) {
                        domains_seen.push(dom);
                    }
                }
            }
        }
        // The launching state variables' domain matters too when the fault
        // sits on a flip-flop output.
        if let Some(i) = net.dffs().iter().position(|&d| d == f.line) {
            let dom = domains.domain_of(i);
            if !domains_seen.contains(&dom) {
                domains_seen.push(dom);
            }
        }
        if domains_seen.len() <= 1 {
            intra.push(f);
        } else {
            inter.push(f);
        }
    }
    (intra, inter)
}

/// Extract functional broadside tests for domain `d` from a multi-rate
/// trajectory: two *consecutive ticks of `d`* form the two patterns, with
/// the explicitly recorded (multi-rate) intermediate state as the second
/// pattern's state — a multi-cycle test at the base rate, two-cycle at
/// domain `d`'s rate.
pub fn domain_tests(
    domains: &ClockDomains,
    d: usize,
    pis: &[Bits],
    traj: &MultiRateTrajectory,
) -> Vec<TwoPatternTest> {
    let period = domains.periods[d];
    let mut out = Vec::new();
    // Ticks of domain d happen at cycles 0, period, 2*period, …; a test
    // needs two consecutive ticks with both launch and capture inside the
    // sequence, and tests must not overlap (the §4.3 rule, scaled to the
    // domain's rate).
    let mut t = 0usize;
    while t + 2 * period <= pis.len() {
        out.push(TwoPatternTest::new(
            traj.states[t].clone(),
            pis[t].clone(),
            traj.states[t + period].clone(),
            pis[t + period].clone(),
        ));
        t += 2 * period;
    }
    out
}

/// Convenience: a round-robin domain overlay for experiments (`n_domains`
/// domains with periods 1, 2, 4, …).
pub fn round_robin(net: &Netlist, n_domains: usize) -> ClockDomains {
    assert!(n_domains >= 1, "need at least one domain");
    let periods: Vec<usize> = (0..n_domains).map(|d| 1usize << d).collect();
    let assignment: Vec<usize> = (0..net.num_dffs()).map(|i| i % n_domains).collect();
    ClockDomains::new(assignment, periods)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_fault::all_transition_faults;
    use fbt_netlist::s27;
    use fbt_sim::seq::simulate_sequence;

    fn pis(n: usize) -> Vec<Bits> {
        (0..n)
            .map(|i| Bits::from_bools(&[i % 2 == 0, i % 3 == 0, i % 5 == 0, true]))
            .collect()
    }

    #[test]
    fn single_domain_degenerates_to_plain_simulation() {
        let net = s27();
        let domains = ClockDomains::single(3);
        let p = pis(12);
        let multi = simulate_multi_rate(&net, &domains, &Bits::zeros(3), &p);
        let plain = simulate_sequence(&net, &Bits::zeros(3), &p);
        assert_eq!(multi.states, plain.states);
    }

    #[test]
    fn slow_domain_ffs_only_change_on_their_ticks() {
        let net = s27();
        // FF 0 fast (period 1), FFs 1 and 2 slow (period 2).
        let domains = ClockDomains::new(vec![0, 1, 1], vec![1, 2]);
        let p = pis(12);
        let traj = simulate_multi_rate(&net, &domains, &Bits::zeros(3), &p);
        for c in 0..p.len() {
            if !domains.ticks(1, c) {
                for ff in [1usize, 2] {
                    assert_eq!(
                        traj.states[c + 1].get(ff),
                        traj.states[c].get(ff),
                        "slow FF {ff} changed off-tick at cycle {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn classification_partitions_the_fault_list() {
        let net = s27();
        let domains = round_robin(&net, 2);
        let faults = all_transition_faults(&net);
        let (intra, inter) = classify_faults(&net, &domains, &faults);
        assert_eq!(intra.len() + inter.len(), faults.len());
        // s27's logic is tightly coupled: some faults must cross domains.
        assert!(!inter.is_empty());
        assert!(!intra.is_empty());
    }

    #[test]
    fn domain_tests_take_states_from_the_trajectory() {
        let net = s27();
        let domains = ClockDomains::new(vec![0, 1, 1], vec![1, 2]);
        let p = pis(16);
        let traj = simulate_multi_rate(&net, &domains, &Bits::zeros(3), &p);
        // Fast domain: like q=1 extraction.
        let fast = domain_tests(&domains, 0, &p, &traj);
        assert_eq!(fast.len(), 8);
        for (k, t) in fast.iter().enumerate() {
            assert_eq!(t.s1, traj.states[2 * k]);
            assert_eq!(t.s2, traj.states[2 * k + 1]);
        }
        // Slow domain: tests every 4 base cycles with a 2-cycle gap.
        let slow = domain_tests(&domains, 1, &p, &traj);
        assert_eq!(slow.len(), 4);
        for (k, t) in slow.iter().enumerate() {
            assert_eq!(t.s1, traj.states[4 * k]);
            assert_eq!(t.s2, traj.states[4 * k + 2]);
        }
    }

    #[test]
    fn domain_tests_are_simulatable_as_two_pattern_tests() {
        // The extracted tests feed straight into the two-pattern fault
        // simulator — the building block for multi-domain coverage.
        let net = s27();
        let domains = round_robin(&net, 2);
        let p = pis(20);
        let traj = simulate_multi_rate(&net, &domains, &Bits::zeros(3), &p);
        let tests = domain_tests(&domains, 0, &p, &traj);
        let faults = all_transition_faults(&net);
        let mut detected = vec![false; faults.len()];
        use fbt_fault::{FaultSimEngine, FaultSimOptions, TestSet};
        let mut fsim = fbt_fault::PackedParallelSim::new(&net);
        fsim.simulate(
            TestSet::TwoPattern(&tests),
            &faults,
            &mut detected,
            &FaultSimOptions::new(),
        );
        assert!(detected.iter().any(|&d| d));
    }

    #[test]
    #[should_panic(expected = "some domain must run at the base rate")]
    fn missing_base_rate_rejected() {
        let _ = ClockDomains::new(vec![0, 0, 0], vec![2]);
    }
}
