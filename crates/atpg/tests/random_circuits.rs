//! Randomized cross-validation of the ATPG stack on generated circuits:
//! every test PODEM emits must actually detect its target fault under the
//! independent bit-parallel fault simulator, for *any* fill of the cube's
//! unspecified bits; and necessary assignments must never contradict a
//! PODEM-found test.
//!
//! Runs deterministically from fixed seeds with the in-tree RNG so the
//! suite needs no external crates (the build environment is offline).

use std::time::Duration;

use fbt_atpg::necessary::{transition_fault_analysis, Analysis};
use fbt_atpg::podem::{AtpgOutcome, Podem};
use fbt_atpg::PodemConfig;
use fbt_fault::{all_transition_faults, collapse, FaultSimEngine, PackedParallelSim};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth::CircuitSpec;
use fbt_netlist::{synth, Netlist};

/// Derive a small random circuit from one RNG draw: 2–5 inputs, 1–3
/// outputs, 2–6 flip-flops and 15–59 gates.
fn small_circuit(rng: &mut Rng) -> Netlist {
    let pi = 2 + (rng.next_u64() % 4) as usize; // 2..6
    let po = 1 + (rng.next_u64() % 3) as usize; // 1..4
    let ff = 2 + (rng.next_u64() % 5) as usize; // 2..7
    let gates = 15 + (rng.next_u64() % 45) as usize; // 15..60
    let mut spec = CircuitSpec::new("rand-atpg", pi, po, ff, gates);
    spec.seed = rng.next_u64();
    synth::generate(&spec)
}

fn cfg() -> PodemConfig {
    PodemConfig {
        backtrack_limit: 3_000,
        time_limit: Duration::from_secs(5),
    }
}

/// PODEM's tests are sound: any random fill of the returned cube detects
/// the fault under the fault simulator.
#[test]
fn podem_tests_are_sound() {
    let mut rng = Rng::new(0xA1);
    for _ in 0..25 {
        let net = small_circuit(&mut rng);
        let mut podem = Podem::new(&net, cfg());
        let mut fsim = PackedParallelSim::new(&net);
        let faults = collapse(&net, &all_transition_faults(&net));
        for f in faults.iter().take(30) {
            if let AtpgOutcome::Test(cube) = podem.generate(f) {
                for _ in 0..3 {
                    let t = cube.fill_random(&mut rng);
                    assert!(fsim.detects(&t, f), "PODEM cube for {f} fails under fill");
                }
            }
        }
    }
}

/// Faults that PODEM proves untestable are never detected by random
/// simulation (a one-sided soundness check for Untestable verdicts).
#[test]
fn untestable_faults_resist_random_tests() {
    let mut rng = Rng::new(0xB2);
    for _ in 0..25 {
        let net = small_circuit(&mut rng);
        let mut podem = Podem::new(&net, cfg());
        let mut fsim = PackedParallelSim::new(&net);
        let faults = collapse(&net, &all_transition_faults(&net));
        let tests: Vec<fbt_fault::BroadsideTest> = (0..96)
            .map(|_| {
                fbt_fault::BroadsideTest::new(
                    (0..net.num_dffs()).map(|_| rng.bit()).collect(),
                    (0..net.num_inputs()).map(|_| rng.bit()).collect(),
                    (0..net.num_inputs()).map(|_| rng.bit()).collect(),
                )
            })
            .collect();
        for f in faults.iter().take(30) {
            if matches!(podem.generate(f), AtpgOutcome::Untestable) {
                for t in &tests {
                    assert!(
                        !fsim.detects(t, f),
                        "untestable {f} detected by a random test"
                    );
                }
            }
        }
    }
}

/// Necessary-assignment analysis is consistent with PODEM: a fault with
/// contradictory necessary assignments is never given a test, and every
/// PODEM test satisfies the computed input necessary assignments.
#[test]
fn necessary_assignments_agree_with_podem() {
    let mut rng = Rng::new(0xC3);
    for _ in 0..25 {
        let net = small_circuit(&mut rng);
        let mut podem = Podem::new(&net, cfg());
        let faults = collapse(&net, &all_transition_faults(&net));
        for f in faults.iter().take(25) {
            let analysis = transition_fault_analysis(&net, f);
            let outcome = podem.generate(f);
            if analysis.is_undetectable() {
                assert!(
                    !matches!(outcome, AtpgOutcome::Test(_)),
                    "NA says undetectable but PODEM found a test for {f}"
                );
            }
            if let (Analysis::Potential(sets), AtpgOutcome::Test(cube)) = (analysis, outcome) {
                let base = fbt_atpg::tpdf::cube_from_inputs(&net, &sets.input_necessary);
                assert!(
                    base.compatible(&cube),
                    "PODEM test for {f} violates its necessary assignments"
                );
            }
        }
    }
}
