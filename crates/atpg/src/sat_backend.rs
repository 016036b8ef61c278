//! SAT-backed test generation: complete search with untestability proofs.
//!
//! [`SatBackend`] answers the same queries as [`crate::Podem`] — find a
//! broadside test for a transition fault or a transition path delay fault —
//! but through `fbt-sat`'s time-frame-expansion encoding and CDCL solver.
//! Where the structural search can abort on its backtrack or time limits,
//! the SAT route terminates with a definite verdict: a model (turned into a
//! fully specified [`TestCube`]) or an UNSAT **untestability proof**. The
//! TPDF pipeline uses it as the final fallback for faults the complete
//! branch-and-bound aborted on, and surfaces the proofs under
//! [`crate::tpdf::SubProcedure::SatSolver`] in its statistics.

use fbt_fault::{TransitionFault, TransitionPathDelayFault};
use fbt_netlist::Netlist;
use fbt_sat::{BroadsideEncoding, DetectionVerdict, SolverStats};
use fbt_sim::Trit;

use crate::podem::AtpgOutcome;
use crate::TestCube;

/// Accounting across a backend's queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatBackendStats {
    /// Queries answered.
    pub queries: usize,
    /// Tests generated (SAT verdicts).
    pub tests: usize,
    /// Untestability proofs (UNSAT verdicts).
    pub untestable_proofs: usize,
    /// Queries that exhausted the conflict budget.
    pub aborted: usize,
    /// Accumulated solver search statistics.
    pub solver: SolverStats,
}

/// SAT-based test generator over a free scan-in state.
#[derive(Debug)]
pub struct SatBackend<'a> {
    net: &'a Netlist,
    conflict_limit: Option<u64>,
    /// Accounting, accumulated over all queries.
    pub stats: SatBackendStats,
}

impl<'a> SatBackend<'a> {
    /// A backend with no conflict budget: every query terminates with a
    /// test or an untestability proof.
    pub fn new(net: &'a Netlist) -> Self {
        SatBackend {
            net,
            conflict_limit: None,
            stats: SatBackendStats::default(),
        }
    }

    /// Bound each query's search; exhausting the budget yields
    /// [`AtpgOutcome::Aborted`] instead of a verdict.
    pub fn with_conflict_limit(net: &'a Netlist, limit: u64) -> Self {
        SatBackend {
            net,
            conflict_limit: Some(limit),
            stats: SatBackendStats::default(),
        }
    }

    /// Generate a broadside test for a transition fault, or prove it
    /// untestable.
    pub fn generate(&mut self, fault: &TransitionFault) -> AtpgOutcome {
        let mut enc = BroadsideEncoding::new(self.net);
        enc.require_detection(fault);
        self.finish(enc)
    }

    /// Generate a single broadside test detecting every transition fault
    /// along a path (the TPDF criterion), or prove none exists.
    pub fn generate_tpdf(&mut self, fault: &TransitionPathDelayFault) -> AtpgOutcome {
        let mut enc = BroadsideEncoding::new(self.net);
        enc.require_tpdf_detection(fault);
        self.finish(enc)
    }

    fn finish(&mut self, enc: BroadsideEncoding<'_>) -> AtpgOutcome {
        let (verdict, stats) = enc.solve(self.conflict_limit);
        self.stats.queries += 1;
        self.stats.solver.absorb(&stats);
        match verdict {
            DetectionVerdict::Test(t) => {
                self.stats.tests += 1;
                AtpgOutcome::Test(TestCube {
                    s1: t.scan_in.iter().map(Trit::from_bool).collect(),
                    v1: t.v1.iter().map(Trit::from_bool).collect(),
                    v2: t.v2.iter().map(Trit::from_bool).collect(),
                })
            }
            DetectionVerdict::Untestable => {
                self.stats.untestable_proofs += 1;
                AtpgOutcome::Untestable
            }
            DetectionVerdict::Unknown => {
                self.stats.aborted += 1;
                AtpgOutcome::Aborted
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::{Podem, PodemConfig};
    use fbt_fault::path::{enumerate_paths, tpdf_list};
    use fbt_fault::{all_transition_faults, FaultSimEngine, PackedParallelSim};
    use fbt_netlist::rng::Rng;
    use fbt_netlist::s27;
    use std::time::Duration;

    #[test]
    fn sat_and_podem_verdicts_agree_on_s27() {
        let net = s27();
        let mut sat = SatBackend::new(&net);
        let mut podem = Podem::new(
            &net,
            PodemConfig {
                backtrack_limit: 100_000,
                time_limit: Duration::from_secs(20),
            },
        );
        let mut sim = PackedParallelSim::new(&net);
        let mut rng = Rng::new(3);
        for fault in all_transition_faults(&net) {
            let sat_outcome = sat.generate(&fault);
            match &sat_outcome {
                AtpgOutcome::Test(cube) => {
                    let t = cube.fill_random(&mut rng);
                    assert!(sim.detects(&t, &fault), "SAT test must detect {fault}");
                }
                AtpgOutcome::Untestable => {
                    assert!(
                        !matches!(podem.generate(&fault), AtpgOutcome::Test(_)),
                        "SAT proved {fault} untestable but PODEM found a test"
                    );
                }
                AtpgOutcome::Aborted => panic!("no conflict limit was set"),
            }
            // Where PODEM reaches a definite verdict, it must match.
            match podem.generate(&fault) {
                AtpgOutcome::Test(_) => {
                    assert!(matches!(sat_outcome, AtpgOutcome::Test(_)), "{fault}")
                }
                AtpgOutcome::Untestable => {
                    assert!(matches!(sat_outcome, AtpgOutcome::Untestable), "{fault}")
                }
                AtpgOutcome::Aborted => {}
            }
        }
        assert_eq!(sat.stats.queries, 2 * net.num_nodes());
        assert_eq!(
            sat.stats.tests + sat.stats.untestable_proofs,
            sat.stats.queries
        );
        assert_eq!(sat.stats.aborted, 0);
    }

    #[test]
    fn tpdf_generation_matches_known_counts() {
        let net = s27();
        let faults = tpdf_list(&enumerate_paths(&net, usize::MAX));
        let mut sat = SatBackend::new(&net);
        let mut detected = 0;
        let mut untestable = 0;
        for f in &faults {
            match sat.generate_tpdf(f) {
                AtpgOutcome::Test(_) => detected += 1,
                AtpgOutcome::Untestable => untestable += 1,
                AtpgOutcome::Aborted => panic!("no conflict limit was set"),
            }
        }
        assert_eq!((detected, untestable), (23, 33), "Table 2.1 semantics");
    }

    #[test]
    fn conflict_limit_can_abort() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let mut sat = SatBackend::with_conflict_limit(&net, 1);
        for fault in &faults {
            // With a one-conflict budget each query either ends trivially or
            // aborts; it must never return a wrong verdict.
            match sat.generate(fault) {
                AtpgOutcome::Test(cube) => {
                    let t = cube.fill(false);
                    assert!(PackedParallelSim::new(&net).detects(&t, fault));
                }
                AtpgOutcome::Untestable | AtpgOutcome::Aborted => {}
            }
        }
        assert_eq!(sat.stats.queries, faults.len());
    }

    #[test]
    fn backend_is_deterministic() {
        let net = s27();
        let run = || {
            let mut sat = SatBackend::new(&net);
            for fault in all_transition_faults(&net) {
                sat.generate(&fault);
            }
            sat.stats
        };
        assert_eq!(run(), run(), "identical queries must give identical stats");
    }
}
