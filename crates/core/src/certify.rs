//! SAT-backed certification that generated tests are *functional* broadside
//! tests.
//!
//! The defining property of a functional broadside test is that its scan-in
//! state is reachable during functional operation (paper §4.1). The on-chip
//! generation flow guarantees this by construction — states are taken from a
//! simulated functional trajectory — but the guarantee rests on the
//! simulator. This module closes the loop independently: for every test it
//! asks `fbt-sat`'s time-frame-expansion engine whether the scan-in state is
//! reachable from the all-0 reset state within `k` functional cycles, under
//! an optional primary-input constraint cube. A SAT model yields a replayable
//! input-sequence *witness*; an UNSAT verdict within the bound **flags** the
//! test as potentially unreachable (and therefore a source of overtesting).
//!
//! Certification is deterministic: repeated runs produce identical
//! certificates and identical solver statistics.

use std::collections::HashMap;

use fbt_fault::BroadsideTest;
use fbt_netlist::Netlist;
use fbt_sat::{bounded_reach, Reachability, SolverStats};
use fbt_sim::seq::simulate_sequence;
use fbt_sim::{Bits, Trit};

/// Verdict for one test's scan-in state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCertificate {
    /// The state is reachable: `pis` is a primary-input sequence driving the
    /// circuit from the all-0 reset state into it in `pis.len()` cycles.
    Certified {
        /// Witness input vectors, one per cycle (empty for the reset state).
        pis: Vec<Bits>,
    },
    /// Proved unreachable within `bound` cycles — the test is not known to
    /// be a functional broadside test and may cause overtesting.
    Flagged {
        /// The exhausted cycle bound.
        bound: usize,
    },
    /// The solver's conflict budget ran out before a verdict.
    Unknown {
        /// The cycle bound that was being attempted.
        bound: usize,
    },
}

impl TestCertificate {
    /// True for [`TestCertificate::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self, TestCertificate::Certified { .. })
    }
}

/// Outcome of certifying a batch of tests against one circuit.
#[derive(Debug, Clone)]
pub struct CertificationReport {
    /// One certificate per input test, in order.
    pub certificates: Vec<TestCertificate>,
    /// The cycle bound `k` the certification ran with.
    pub bound: usize,
    /// Accumulated solver statistics (identical across repeated runs).
    pub solver: SolverStats,
}

impl CertificationReport {
    /// Number of certified tests.
    pub fn num_certified(&self) -> usize {
        self.certificates
            .iter()
            .filter(|c| c.is_certified())
            .count()
    }

    /// Number of flagged (proved-unreachable-within-bound) tests.
    pub fn num_flagged(&self) -> usize {
        self.certificates
            .iter()
            .filter(|c| matches!(c, TestCertificate::Flagged { .. }))
            .count()
    }

    /// Number of budget-exhausted verdicts.
    pub fn num_unknown(&self) -> usize {
        self.certificates
            .iter()
            .filter(|c| matches!(c, TestCertificate::Unknown { .. }))
            .count()
    }

    /// True when every test was certified reachable.
    pub fn all_certified(&self) -> bool {
        self.num_certified() == self.certificates.len()
    }
}

/// Certify a single scan-in state.
///
/// Searches depths `0..=k`; a witness is replayed from reset on the
/// compiled simulation kernel before being returned, so a `Certified`
/// verdict is trustworthy even if the encoding were wrong.
pub fn certify_state(
    net: &Netlist,
    state: &Bits,
    k: usize,
    pi_cube: Option<&[Trit]>,
    conflict_limit: Option<u64>,
) -> (TestCertificate, SolverStats) {
    let (reach, stats) = bounded_reach(net, state, k, pi_cube, conflict_limit);
    let cert = match reach {
        Reachability::Reachable { pis } => {
            let replay = simulate_sequence(net, &Bits::zeros(net.num_dffs()), &pis);
            assert_eq!(
                replay.states.last(),
                Some(state),
                "SAT witness failed to replay; encoding bug"
            );
            TestCertificate::Certified { pis }
        }
        Reachability::Unreachable { bound } => TestCertificate::Flagged { bound },
        Reachability::Unknown { bound } => TestCertificate::Unknown { bound },
    };
    (cert, stats)
}

/// Certify every test's scan-in state, memoizing repeated states.
///
/// `pi_cube`, when given, restricts the witness search to primary-input
/// vectors matching the cube in every cycle — the §4.4 setting where an
/// embedded block only ever sees constrained inputs. `conflict_limit` bounds
/// each solver query; exhausting it yields [`TestCertificate::Unknown`]
/// rather than a wrong verdict.
pub fn certify_tests(
    net: &Netlist,
    tests: &[BroadsideTest],
    k: usize,
    pi_cube: Option<&[Trit]>,
    conflict_limit: Option<u64>,
) -> CertificationReport {
    let mut solver = SolverStats::default();
    let mut memo: HashMap<Bits, TestCertificate> = HashMap::new();
    let certificates = tests
        .iter()
        .map(|t| {
            if let Some(c) = memo.get(&t.scan_in) {
                return c.clone();
            }
            let (cert, stats) = certify_state(net, &t.scan_in, k, pi_cube, conflict_limit);
            solver.absorb(&stats);
            memo.insert(t.scan_in.clone(), cert.clone());
            cert
        })
        .collect();
    CertificationReport {
        certificates,
        bound: k,
        solver,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_bist::{cube, Tpg, TpgSpec};
    use fbt_netlist::s27;

    use crate::extract::functional_tests;

    /// Tests extracted from a functional trajectory from reset.
    fn trajectory_tests(net: &Netlist, seed: u64, len: usize) -> Vec<BroadsideTest> {
        let spec = TpgSpec {
            lfsr_width: 16,
            m: 2,
            cube: cube::input_cube(net),
        };
        let pis = Tpg::new(spec, seed).sequence(len);
        let zero = Bits::zeros(net.num_dffs());
        let traj = simulate_sequence(net, &zero, &pis);
        functional_tests(&pis, &traj.states)
    }

    #[test]
    fn extracted_tests_are_certified() {
        let net = s27();
        let tests = trajectory_tests(&net, 0xC0FFEE, 12);
        assert!(!tests.is_empty());
        let report = certify_tests(&net, &tests, 12, None, None);
        assert!(
            report.all_certified(),
            "states on a functional trajectory must certify: {report:?}"
        );
        assert_eq!(report.num_flagged() + report.num_unknown(), 0);
    }

    #[test]
    fn unreachable_state_is_flagged() {
        let net = s27();
        let k = 4;
        // Exhaustively enumerate the states reachable within k cycles.
        let n_pi = net.num_inputs();
        let mut frontier = vec![Bits::zeros(net.num_dffs())];
        let mut seen: std::collections::HashSet<Bits> = frontier.iter().cloned().collect();
        for _ in 0..k {
            let mut next = Vec::new();
            for s in &frontier {
                for a in 0..1u64 << n_pi {
                    let pi: Bits = (0..n_pi).map(|i| (a >> i) & 1 == 1).collect();
                    let traj = simulate_sequence(&net, s, &[pi]);
                    let ns = traj.states[1].clone();
                    if seen.insert(ns.clone()) {
                        next.push(ns);
                    }
                }
            }
            frontier = next;
        }
        let unreachable: Vec<Bits> = (0..1u64 << net.num_dffs())
            .map(|a| (0..net.num_dffs()).map(|i| (a >> i) & 1 == 1).collect())
            .filter(|s: &Bits| !seen.contains(s))
            .collect();
        assert!(!unreachable.is_empty(), "need an unreachable state at k=4");
        let bad = BroadsideTest::new(unreachable[0].clone(), Bits::zeros(n_pi), Bits::zeros(n_pi));
        let report = certify_tests(&net, &[bad], k, None, None);
        assert_eq!(
            report.certificates[0],
            TestCertificate::Flagged { bound: k },
            "a state outside the k-step reachable set must be flagged"
        );
    }

    #[test]
    fn constraint_cube_can_flag_otherwise_reachable_states() {
        let net = s27();
        let tests = trajectory_tests(&net, 0xC0FFEE, 12);
        let free = certify_tests(&net, &tests, 12, None, None);
        assert!(free.all_certified());
        // Pin every primary input to 0: only states on the all-0-input
        // trajectory remain certifiable.
        let cube = vec![Trit::Zero; net.num_inputs()];
        let pinned = certify_tests(&net, &tests, 12, Some(&cube), None);
        assert!(
            pinned.num_certified() <= free.num_certified(),
            "constraints can only shrink the certifiable set"
        );
        for cert in &pinned.certificates {
            if let TestCertificate::Certified { pis } = cert {
                for pi in pis {
                    assert!(pi.iter().all(|b| !b), "witness must honour the cube");
                }
            }
        }
    }

    #[test]
    fn certification_is_deterministic() {
        let net = s27();
        let tests = trajectory_tests(&net, 0xBEEF, 10);
        let a = certify_tests(&net, &tests, 10, None, None);
        let b = certify_tests(&net, &tests, 10, None, None);
        assert_eq!(a.certificates, b.certificates);
        assert_eq!(a.solver, b.solver, "solver statistics must be identical");
    }

    #[test]
    fn memoization_does_not_change_verdicts() {
        let net = s27();
        let tests = trajectory_tests(&net, 0xBEEF, 10);
        let mut doubled = tests.clone();
        doubled.extend(tests.iter().cloned());
        let once = certify_tests(&net, &tests, 10, None, None);
        let twice = certify_tests(&net, &doubled, 10, None, None);
        assert_eq!(&twice.certificates[..tests.len()], &once.certificates[..],);
        assert_eq!(
            &twice.certificates[tests.len()..],
            &once.certificates[..],
            "repeated scan-in states reuse the memoized certificate"
        );
        assert_eq!(once.solver, twice.solver, "memoized queries are free");
    }
}
