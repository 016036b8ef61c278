//! Differential harness: every verdict of the SAT engine is cross-checked
//! against the independent fault-simulation engine.
//!
//! * Soundness — every test the SAT route produces must detect its target
//!   fault under [`fbt_fault::FaultSimEngine`] simulation;
//! * Completeness — on circuits small enough to enumerate every broadside
//!   test exhaustively, an UNSAT (untestable) verdict must agree with the
//!   enumeration, fault for fault;
//! * Determinism — repeating a run produces bit-identical solver statistics
//!   (decisions, conflicts, propagations), not merely the same verdicts.
//!
//! Runs deterministically from fixed seeds with the in-tree RNG so the
//! suite needs no external crates (the build environment is offline).

use fbt_fault::path::{enumerate_paths, tpdf_list};
use fbt_fault::{
    all_transition_faults, BroadsideTest, FaultSimEngine, FaultSimOptions, PackedParallelSim,
    TestSet,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth::CircuitSpec;
use fbt_netlist::{s27, synth, Netlist};
use fbt_sat::{solve_tpdf, solve_transition_fault, DetectionVerdict, SolverStats};
use fbt_sim::Bits;

/// All `2^(ndff + 2·npi)` fully specified broadside tests of a circuit.
/// Only call on circuits where that number is small.
fn all_broadside_tests(net: &Netlist) -> Vec<BroadsideTest> {
    let nd = net.num_dffs();
    let np = net.num_inputs();
    assert!(nd + 2 * np <= 16, "circuit too large to enumerate");
    let bits = |a: u64, n: usize| -> Bits { (0..n).map(|i| (a >> i) & 1 == 1).collect() };
    (0..1u64 << (nd + 2 * np))
        .map(|a| BroadsideTest::new(bits(a, nd), bits(a >> nd, np), bits(a >> (nd + np), np)))
        .collect()
}

/// Ground-truth detectability per fault via exhaustive packed simulation.
fn exhaustive_detectability(net: &Netlist) -> Vec<bool> {
    let faults = all_transition_faults(net);
    let tests = all_broadside_tests(net);
    let mut detected = vec![false; faults.len()];
    PackedParallelSim::new(net).simulate(
        TestSet::Broadside(&tests),
        &faults,
        &mut detected,
        &FaultSimOptions::new(),
    );
    detected
}

/// SAT verdicts vs exhaustive enumeration plus simulation of every model,
/// on one circuit. Returns the accumulated solver statistics.
fn differential_check(net: &Netlist) -> SolverStats {
    let faults = all_transition_faults(net);
    let truth = exhaustive_detectability(net);
    let mut sim = PackedParallelSim::new(net);
    let mut total = SolverStats::default();
    for (fault, &detectable) in faults.iter().zip(&truth) {
        let (verdict, stats) = solve_transition_fault(net, fault, None);
        total.absorb(&stats);
        match verdict {
            DetectionVerdict::Test(t) => {
                assert!(
                    sim.detects(&t, fault),
                    "SAT test fails to detect {fault} in simulation on {}",
                    net.name()
                );
                assert!(
                    detectable,
                    "SAT found a test for {fault} but exhaustive enumeration says \
                     no broadside test detects it on {}",
                    net.name()
                );
            }
            DetectionVerdict::Untestable => {
                assert!(
                    !detectable,
                    "SAT proved {fault} untestable but enumeration found a \
                     detecting test on {}",
                    net.name()
                );
            }
            DetectionVerdict::Unknown => panic!("no conflict limit was set"),
        }
    }
    total
}

#[test]
fn transition_fault_verdicts_match_enumeration_on_s27() {
    differential_check(&s27());
}

#[test]
fn transition_fault_verdicts_match_enumeration_on_random_circuits() {
    let mut rng = Rng::new(0x5A7_D1FF);
    for round in 0..6 {
        // Keep the enumeration space at or below 2^16 tests.
        let pi = 2 + (rng.next_u64() % 3) as usize; // 2..5
        let ff = 2 + (rng.next_u64() % 3) as usize; // 2..5
        let gates = 12 + (rng.next_u64() % 30) as usize;
        let mut spec = CircuitSpec::new("rand-sat-diff", pi, 2, ff, gates);
        spec.seed = rng.next_u64() ^ round;
        let net = synth::generate(&spec);
        differential_check(&net);
    }
}

#[test]
fn tpdf_tests_detect_all_their_transition_faults() {
    let net = s27();
    let faults = tpdf_list(&enumerate_paths(&net, usize::MAX));
    let mut sim = PackedParallelSim::new(&net);
    let mut detected = 0usize;
    for f in &faults {
        if let (DetectionVerdict::Test(t), _) = solve_tpdf(&net, f, None) {
            for tf in f.transition_faults(&net) {
                assert!(
                    sim.detects(&t, &tf),
                    "TPDF test must detect every transition fault along its path"
                );
            }
            detected += 1;
        }
    }
    assert_eq!(detected, 23, "known s27 TPDF detection count");
}

#[test]
fn repeated_runs_have_identical_solver_statistics() {
    let net = s27();
    let a = differential_check(&net);
    let b = differential_check(&net);
    assert_eq!(
        a, b,
        "conflict/propagation/decision counts must be identical across runs"
    );
    assert!(a.conflicts > 0 || a.propagations > 0, "stats were recorded");
}
