//! PODEM-style deterministic broadside test generation for transition
//! faults (paper §2.3.1), generalized to multiple simultaneous targets for
//! the branch-and-bound procedure of §2.3.5.

use std::time::{Duration, Instant};

use fbt_fault::TransitionFault;
use fbt_netlist::Netlist;
use fbt_sim::Trit;

use crate::frames::{FaultStatus, TwoFrame};
use crate::TestCube;

/// Search limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Maximum number of backtracks before aborting (128 in the paper's
    /// experiments).
    pub backtrack_limit: usize,
    /// Wall-clock limit for one generation call.
    pub time_limit: Duration,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 128,
            time_limit: Duration::from_secs(60),
        }
    }
}

/// Outcome of a generation attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// A (partially specified) test detecting all targets.
    Test(TestCube),
    /// Proven undetectable (under the base cube, if one was given) —
    /// the search space was exhausted.
    Untestable,
    /// A limit was hit before a decision was reached.
    Aborted,
}

impl AtpgOutcome {
    /// The test, if one was found.
    pub fn test(&self) -> Option<&TestCube> {
        match self {
            AtpgOutcome::Test(t) => Some(t),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    var: usize,
    value: bool,
    flipped: bool,
}

/// The deterministic test generator.
#[derive(Debug)]
pub struct Podem<'a> {
    engine: TwoFrame<'a>,
    cfg: PodemConfig,
    /// Backtracks consumed by the last call.
    pub last_backtracks: usize,
}

impl<'a> Podem<'a> {
    /// Create a generator for a circuit.
    pub fn new(net: &'a Netlist, cfg: PodemConfig) -> Self {
        Podem {
            engine: TwoFrame::new(net),
            cfg,
            last_backtracks: 0,
        }
    }

    /// Generate a broadside test for a single transition fault.
    ///
    /// # Example
    ///
    /// ```
    /// use fbt_atpg::{Podem, PodemConfig};
    /// use fbt_fault::{Transition, TransitionFault};
    ///
    /// let net = fbt_netlist::s27();
    /// let mut podem = Podem::new(&net, PodemConfig::default());
    /// let g8 = net.find("G8").unwrap();
    /// let fault = TransitionFault::new(g8, Transition::Rise);
    /// let outcome = podem.generate(&fault);
    /// assert!(outcome.test().is_some(), "G8 rising is testable");
    /// ```
    pub fn generate(&mut self, fault: &TransitionFault) -> AtpgOutcome {
        let base = TestCube::unspecified(self.engine.net());
        self.generate_multi(&base, std::slice::from_ref(fault))
    }

    /// Generate a test for a single fault, extending a fixed base cube
    /// (dynamic-compaction style: the base's specified bits are never
    /// backtracked).
    pub fn generate_from(&mut self, base: &TestCube, fault: &TransitionFault) -> AtpgOutcome {
        self.generate_multi(base, std::slice::from_ref(fault))
    }

    /// Generate a test detecting *all* of `targets` simultaneously, with
    /// chronological backtracking across targets — the complete
    /// branch-and-bound search of §2.3.5 when `targets` is the transition
    /// fault set of a transition path delay fault.
    ///
    /// `Untestable` means no completion of `base` detects all targets; with
    /// an unspecified base this proves the multi-target fault undetectable.
    pub fn generate_multi(&mut self, base: &TestCube, targets: &[TransitionFault]) -> AtpgOutcome {
        assert!(!targets.is_empty(), "need at least one target");
        let start = Instant::now();
        self.last_backtracks = 0;
        self.engine.load_cube(base);
        let mut decisions: Vec<Decision> = Vec::new();

        loop {
            if start.elapsed() > self.cfg.time_limit {
                return AtpgOutcome::Aborted;
            }
            self.engine.forward();

            // Validity check over all targets (paper Fig. 2.3): if any
            // target has become impossible, backtrack.
            let mut objective = None;
            let mut impossible = false;
            let mut all_detected = true;
            for t in targets {
                match self.engine.fault_status(t) {
                    FaultStatus::Detected => {}
                    FaultStatus::Impossible => {
                        impossible = true;
                        all_detected = false;
                        break;
                    }
                    FaultStatus::Possible(obj) => {
                        all_detected = false;
                        if objective.is_none() {
                            objective = Some(obj);
                        }
                    }
                }
            }
            if all_detected {
                return AtpgOutcome::Test(self.engine.cube());
            }

            let next = if impossible {
                None
            } else {
                objective.and_then(|obj| self.engine.backtrace(obj))
            };

            match next {
                Some((var, value)) => {
                    decisions.push(Decision {
                        var,
                        value,
                        flipped: false,
                    });
                    self.engine.set_input(var, Trit::from_bool(value));
                }
                None => {
                    // Backtrack to the most recent unflipped decision.
                    self.last_backtracks += 1;
                    if self.last_backtracks > self.cfg.backtrack_limit {
                        return AtpgOutcome::Aborted;
                    }
                    loop {
                        match decisions.pop() {
                            Some(d) if !d.flipped => {
                                decisions.push(Decision {
                                    var: d.var,
                                    value: !d.value,
                                    flipped: true,
                                });
                                self.engine.set_input(d.var, Trit::from_bool(!d.value));
                                break;
                            }
                            Some(d) => {
                                self.engine.set_input(d.var, Trit::X);
                            }
                            None => return AtpgOutcome::Untestable,
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_fault::{all_transition_faults, Transition};
    use fbt_fault::{FaultSimEngine, PackedParallelSim};
    use fbt_netlist::rng::Rng;
    use fbt_netlist::{s27, synth};

    fn exhaustive_detectable(net: &Netlist, f: &TransitionFault) -> bool {
        // Brute force over all (s1, v1, v2) combinations (s27: 2^11).
        let n_pi = net.num_inputs();
        let n_ff = net.num_dffs();
        let total = n_pi * 2 + n_ff;
        assert!(total <= 16, "too big for brute force");
        let mut fsim = PackedParallelSim::new(net);
        for combo in 0..(1u32 << total) {
            let bit = |k: usize| (combo >> k) & 1 == 1;
            let s1: fbt_sim::Bits = (0..n_ff).map(bit).collect();
            let v1: fbt_sim::Bits = (n_ff..n_ff + n_pi).map(bit).collect();
            let v2: fbt_sim::Bits = (n_ff + n_pi..total).map(bit).collect();
            let t = fbt_fault::BroadsideTest::new(s1, v1, v2);
            if fsim.detects(&t, f) {
                return true;
            }
        }
        false
    }

    #[test]
    fn podem_agrees_with_exhaustive_search_on_s27() {
        let net = s27();
        let cfg = PodemConfig {
            backtrack_limit: 10_000,
            time_limit: Duration::from_secs(30),
        };
        let mut podem = Podem::new(&net, cfg);
        let mut fsim = PackedParallelSim::new(&net);
        let mut rng = Rng::new(3);
        for f in all_transition_faults(&net) {
            let truth = exhaustive_detectable(&net, &f);
            match podem.generate(&f) {
                AtpgOutcome::Test(cube) => {
                    assert!(truth, "PODEM found a test for undetectable {f}");
                    // The test must actually detect the fault, for any fill.
                    for _ in 0..4 {
                        let t = cube.fill_random(&mut rng);
                        assert!(fsim.detects(&t, &f), "fill of {f}'s cube fails");
                    }
                }
                AtpgOutcome::Untestable => {
                    assert!(!truth, "PODEM called detectable {f} untestable");
                }
                AtpgOutcome::Aborted => panic!("aborted on s27 fault {f}"),
            }
        }
    }

    #[test]
    fn base_cube_is_respected() {
        let net = s27();
        let mut podem = Podem::new(&net, PodemConfig::default());
        // Find any detectable fault and a test for it.
        let g8 = net.find("G8").unwrap();
        let f = TransitionFault::new(g8, Transition::Rise);
        let AtpgOutcome::Test(first) = podem.generate(&f) else {
            panic!("G8 rise should be testable");
        };
        // Extending from its own cube must succeed without changing it.
        let AtpgOutcome::Test(ext) = podem.generate_from(&first, &f) else {
            panic!("extension from own test must succeed");
        };
        assert!(first.compatible(&ext));
    }

    #[test]
    fn multi_target_requires_single_test() {
        let net = s27();
        let cfg = PodemConfig {
            backtrack_limit: 50_000,
            time_limit: Duration::from_secs(30),
        };
        let mut podem = Podem::new(&net, cfg);
        let mut fsim = PackedParallelSim::new(&net);
        // Two individually testable faults; ask for one test for both.
        let faults = [
            TransitionFault::new(net.find("G8").unwrap(), Transition::Rise),
            TransitionFault::new(net.find("G15").unwrap(), Transition::Rise),
        ];
        let base = TestCube::unspecified(&net);
        if let AtpgOutcome::Test(cube) = podem.generate_multi(&base, &faults) {
            let t = cube.fill(false);
            for f in &faults {
                assert!(fsim.detects(&t, f), "joint test misses {f}");
            }
        }
    }

    #[test]
    fn synthetic_circuit_mostly_decided() {
        let net = synth::generate(&synth::find("s298").unwrap());
        let cfg = PodemConfig {
            backtrack_limit: 256,
            time_limit: Duration::from_secs(10),
        };
        let mut podem = Podem::new(&net, cfg);
        let mut fsim = PackedParallelSim::new(&net);
        let faults = all_transition_faults(&net);
        let mut rng = Rng::new(11);
        let mut decided = 0usize;
        let mut tested = 0usize;
        for f in faults.iter().take(120) {
            match podem.generate(f) {
                AtpgOutcome::Test(cube) => {
                    decided += 1;
                    tested += 1;
                    let t = cube.fill_random(&mut rng);
                    assert!(fsim.detects(&t, f), "cube for {f} does not detect it");
                }
                AtpgOutcome::Untestable => decided += 1,
                AtpgOutcome::Aborted => {}
            }
        }
        assert!(decided >= 100, "only {decided}/120 decided");
        assert!(tested >= 40, "only {tested}/120 tested");
    }
}
