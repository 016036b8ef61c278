//! Bounded reachability certification from the reset state.
//!
//! The paper's functional broadside tests are defined by their scan-in
//! states being *reachable under functional operation* (§4.3): starting
//! from the all-0 reset state and applying primary-input vectors that
//! satisfy the functional constraints, the circuit can arrive at the state.
//! The generators in `fbt-core` produce such states constructively — by
//! simulating forward — but constructive evidence cannot show a state is
//! **un**reachable. This module closes that gap with SAT: unroll the
//! circuit `j` frames from reset, pin each frame's primary inputs to the
//! constraint cube, and ask for the target as the state entering frame `j`.
//!
//! * `Sat` at some depth `j ≤ k` yields a **witness**: the per-frame PI
//!   vectors driving reset to the target, checkable by plain simulation.
//! * `Unsat` at every depth up to `k` is a *k-bounded unreachability
//!   proof*: no constrained input sequence of length ≤ k reaches the state.
//!   (It is a proof outright once `k ≥ 2^{#DFF}`, and in practice far
//!   earlier; the certifier in `fbt-core` records the bound.)
//!
//! Depths are searched in increasing order, so a `Reachable` verdict always
//! carries the *minimum* constrained distance from reset.

use fbt_netlist::Netlist;
use fbt_sim::{Bits, Trit};

use crate::solver::{SatResult, Solver, SolverStats};
use crate::unroll::{FrameState, Unroller};

/// Verdict of a bounded reachability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reachability {
    /// The target is reachable in `pis.len()` constrained cycles from
    /// reset; `pis[f]` is the primary-input vector applied in cycle `f`.
    Reachable {
        /// The witness input sequence (its length is the depth).
        pis: Vec<Bits>,
    },
    /// No constrained input sequence of length ≤ `bound` reaches the
    /// target.
    Unreachable {
        /// The depth bound that was exhausted.
        bound: usize,
    },
    /// The conflict budget ran out before every depth had a verdict.
    Unknown {
        /// The depth bound that was being examined.
        bound: usize,
    },
}

impl Reachability {
    /// Whether the target was proven reachable.
    pub fn is_reachable(&self) -> bool {
        matches!(self, Reachability::Reachable { .. })
    }

    /// The witness depth, if reachable.
    pub fn depth(&self) -> Option<usize> {
        match self {
            Reachability::Reachable { pis } => Some(pis.len()),
            _ => None,
        }
    }
}

/// Decide whether `target` is reachable from the all-0 reset state within
/// `k` cycles whose primary inputs satisfy `pi_cube` (`None` = inputs
/// unconstrained). `conflict_limit` bounds each depth's search; exhausting
/// it turns the overall verdict into [`Reachability::Unknown`].
///
/// # Panics
///
/// Panics if `target`'s width differs from the circuit's DFF count, or the
/// cube's width from the PI count.
pub fn bounded_reach(
    net: &Netlist,
    target: &Bits,
    k: usize,
    pi_cube: Option<&[Trit]>,
    conflict_limit: Option<u64>,
) -> (Reachability, SolverStats) {
    assert_eq!(target.len(), net.num_dffs(), "target width mismatch");
    let mut stats = SolverStats::default();
    let reset = Bits::zeros(net.num_dffs());
    if *target == reset {
        return (Reachability::Reachable { pis: Vec::new() }, stats);
    }
    let mut exhausted = false;
    for depth in 1..=k {
        let mut u = Unroller::new(net);
        u.push_frame(FrameState::Fixed(&reset));
        for _ in 1..depth {
            u.push_frame(FrameState::FromPrevious);
        }
        if let Some(cube) = pi_cube {
            for f in 0..depth {
                u.constrain_pis(f, cube);
            }
        }
        u.assert_next_state(depth - 1, target);
        let mut solver = Solver::from_cnf(u.cnf());
        let result = match conflict_limit {
            Some(limit) => solver.solve_limited(limit),
            None => solver.solve(),
        };
        stats.absorb(&solver.stats);
        match result {
            SatResult::Sat(model) => {
                let pis = (0..depth).map(|f| u.pi_values(f, &model)).collect();
                return (Reachability::Reachable { pis }, stats);
            }
            SatResult::Unsat => {}
            SatResult::Unknown => exhausted = true,
        }
    }
    let verdict = if exhausted {
        Reachability::Unknown { bound: k }
    } else {
        Reachability::Unreachable { bound: k }
    };
    (verdict, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::s27;
    use fbt_sim::comb;
    use fbt_sim::seq::simulate_sequence;
    use std::collections::HashSet;

    /// The state a witness drives the circuit into from reset.
    fn replay(net: &Netlist, pis: &[Bits]) -> Bits {
        let mut traj = simulate_sequence(net, &Bits::zeros(net.num_dffs()), pis);
        traj.states.pop().expect("a trajectory holds its start")
    }

    /// All states reachable from reset within `k` cycles, by brute force.
    fn enumerate_reachable(net: &Netlist, k: usize, cube: Option<&[Trit]>) -> HashSet<Bits> {
        let n_pi = net.num_inputs();
        let mut frontier = vec![Bits::zeros(net.num_dffs())];
        let mut seen: HashSet<Bits> = frontier.iter().cloned().collect();
        for _ in 0..k {
            let mut next = Vec::new();
            for state in &frontier {
                'vec: for v in 0..(1u32 << n_pi) {
                    let pis: Bits = (0..n_pi).map(|i| (v >> i) & 1 == 1).collect();
                    if let Some(cube) = cube {
                        for (i, t) in cube.iter().enumerate() {
                            if let Some(b) = t.to_bool() {
                                if pis.get(i) != b {
                                    continue 'vec;
                                }
                            }
                        }
                    }
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
                    if seen.insert(ns.clone()) {
                        next.push(ns);
                    }
                }
            }
            frontier = next;
        }
        seen
    }

    #[test]
    fn verdicts_match_exhaustive_enumeration_on_s27() {
        let net = s27();
        let k = 4;
        let reachable = enumerate_reachable(&net, k, None);
        for s in 0..8u32 {
            let target: Bits = (0..3).map(|i| (s >> i) & 1 == 1).collect();
            let (verdict, _) = bounded_reach(&net, &target, k, None, None);
            match &verdict {
                Reachability::Reachable { pis } => {
                    assert!(
                        reachable.contains(&target),
                        "SAT over-approximated {target}"
                    );
                    assert!(pis.len() <= k);
                    assert_eq!(replay(&net, pis), target, "witness must replay");
                }
                Reachability::Unreachable { bound } => {
                    assert_eq!(*bound, k);
                    assert!(!reachable.contains(&target), "SAT missed {target}");
                }
                Reachability::Unknown { .. } => panic!("no conflict limit was set"),
            }
        }
    }

    #[test]
    fn constrained_inputs_shrink_the_reachable_set() {
        let net = s27();
        let k = 3;
        let cube = vec![Trit::Zero, Trit::X, Trit::Zero, Trit::X];
        let free = enumerate_reachable(&net, k, None);
        let constrained = enumerate_reachable(&net, k, Some(&cube));
        assert!(constrained.len() <= free.len());
        for s in 0..8u32 {
            let target: Bits = (0..3).map(|i| (s >> i) & 1 == 1).collect();
            let (verdict, _) = bounded_reach(&net, &target, k, Some(&cube), None);
            assert_eq!(
                verdict.is_reachable(),
                constrained.contains(&target),
                "constrained verdict for {target}"
            );
            if let Reachability::Reachable { pis } = &verdict {
                for v in pis {
                    assert!(!v.get(0) && !v.get(2), "witness must respect the cube");
                }
            }
        }
    }

    #[test]
    fn reset_state_is_reachable_at_depth_zero() {
        let net = s27();
        let (verdict, stats) = bounded_reach(&net, &Bits::zeros(3), 2, None, None);
        assert_eq!(verdict, Reachability::Reachable { pis: Vec::new() });
        assert_eq!(verdict.depth(), Some(0));
        assert_eq!(stats, SolverStats::default(), "no solving needed");
    }

    #[test]
    fn depths_are_minimal() {
        let net = s27();
        for s in 1..8u32 {
            let target: Bits = (0..3).map(|i| (s >> i) & 1 == 1).collect();
            let (verdict, _) = bounded_reach(&net, &target, 5, None, None);
            if let Some(d) = verdict.depth() {
                // A shallower bound must not reach it.
                let (shallow, _) = bounded_reach(&net, &target, d - 1, None, None);
                assert!(
                    !shallow.is_reachable(),
                    "depth {d} was not minimal for {target}"
                );
            }
        }
    }

    #[test]
    fn zero_conflict_budget_reports_unknown() {
        let net = s27();
        let target = Bits::from_str01("110");
        let (verdict, _) = bounded_reach(&net, &target, 3, None, Some(1));
        // A single conflict is enough only for trivial depths; the verdict
        // must never be a wrong Unreachable.
        if let Reachability::Reachable { pis } = &verdict {
            assert_eq!(replay(&net, pis), target);
        }
    }
}
