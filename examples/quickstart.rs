//! Quickstart: built-in generation of functional broadside tests for a small
//! scan circuit, end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fbt::core::driver::DrivingBlock;
use fbt::netlist::s27;
use fbt::prelude::*;

fn main() {
    // 1. A gate-level sequential circuit (the genuine ISCAS89 s27).
    let circuit = s27();
    println!("circuit: {circuit}");

    // 2. Estimate SWAfunc: the peak switching activity the circuit shows
    //    under functional input sequences. With no surrounding design the
    //    inputs are unconstrained ("buffers").
    let cfg = FunctionalBistConfig::scaled();
    let bound = swafunc(&circuit, &DrivingBlock::Buffers, &cfg);
    println!(
        "SWAfunc = {:.2}% of lines switching per cycle",
        bound * 100.0
    );

    // 3. Generate functional broadside tests on-chip: multi-segment
    //    pseudo-random primary-input sequences whose every clock cycle
    //    respects the bound, applied from the all-0 reset state.
    let outcome = generate_constrained(&circuit, bound, &cfg);
    println!(
        "generated {} tests from {} seeds across {} multi-segment sequences",
        outcome.tests_applied,
        outcome.nseeds(),
        outcome.nmulti()
    );
    println!(
        "transition fault coverage: {:.2}% of {} collapsed faults",
        outcome.fault_coverage(),
        outcome.faults.len()
    );
    println!(
        "peak switching activity during test application: {:.2}% (bound {:.2}%)",
        outcome.peak_swa * 100.0,
        bound * 100.0
    );
    assert!(outcome.peak_swa <= bound + 1e-12, "the bound is hard");

    // 4. The fault-simulation engine API: the packed-parallel engine gives
    //    bit-identical detections on one worker thread and on all of them.
    let faults = collapse(&circuit, &all_transition_faults(&circuit));
    let mut rng = fbt::netlist::rng::Rng::new(1);
    let tests: Vec<BroadsideTest> = (0..256)
        .map(|_| {
            BroadsideTest::new(
                (0..circuit.num_dffs()).map(|_| rng.bit()).collect(),
                (0..circuit.num_inputs()).map(|_| rng.bit()).collect(),
                (0..circuit.num_inputs()).map(|_| rng.bit()).collect(),
            )
        })
        .collect();
    let mut engine = PackedParallelSim::new(&circuit);
    let mut det_one = vec![false; faults.len()];
    let mut det_auto = vec![false; faults.len()];
    let opts = FaultSimOptions::new();
    engine.simulate(
        TestSet::Broadside(&tests),
        &faults,
        &mut det_one,
        &opts.clone().threads(1),
    );
    engine.simulate(TestSet::Broadside(&tests), &faults, &mut det_auto, &opts);
    assert_eq!(det_one, det_auto, "thread count never changes a verdict");
    println!(
        "{} agrees on 1 and on automatic threads: {:.2}% coverage from 256 random broadside tests",
        engine.name(),
        fbt::fault::coverage_percent(&det_one)
    );
}
