//! The defining property of a functional broadside test (paper §4.1), checked
//! without the simulator: every scan-in state a generated program applies is
//! reachable in functional operation.
//!
//! Each program is replayed from its seeds, and [`certify_tests`] asks the
//! SAT time-frame expansion for an input sequence of at most [`K`] cycles
//! that drives the circuit from the all-0 reset state into the scan-in
//! state. A witness is re-simulated before it counts.
//!
//! No primary-input cube is passed: the TPG's cube `C` only biases the
//! inputs (§4.3), so it does not constrain functional operation. The
//! state-holding stage is left out because it visits unreachable states by
//! design (§4.5).

use fbt_core::driver::{swafunc, DrivingBlock};
use fbt_core::{
    certify_tests, constrained, generate_constrained, generate_unconstrained, FunctionalBistConfig,
};
use fbt_netlist::{s27, synth, Netlist};

/// The cycle bound of the reachability search.
const K: usize = 8;

/// Certify every scan-in state of the unconstrained program and of the
/// constrained program under `SWAfunc`.
fn certify_programs(name: &str, net: &Netlist, cfg: &FunctionalBistConfig) {
    let unconstrained = generate_unconstrained(net, cfg);
    let bound = swafunc(net, &DrivingBlock::Buffers, cfg);
    let constrained_out = generate_constrained(net, bound, cfg);
    let programs = [
        ("unconstrained", unconstrained.replay_tests(net, cfg)),
        (
            "constrained",
            constrained::replay_tests(net, &constrained_out, cfg),
        ),
    ];
    for (method, tests) in programs {
        assert!(!tests.is_empty(), "{name} {method}: no tests");
        let report = certify_tests(net, &tests, K, None, None);
        assert!(
            report.all_certified(),
            "{name} {method}: {} flagged and {} unknown of {} scan-in states at k = {K}",
            report.num_flagged(),
            report.num_unknown(),
            tests.len()
        );
    }
}

#[test]
fn s27_programs_apply_only_reachable_states() {
    certify_programs("s27", &s27(), &FunctionalBistConfig::smoke());
}

#[test]
fn default_scale_programs_apply_only_reachable_states() {
    let cfg = FunctionalBistConfig::scaled();
    for name in ["s298", "s386", "s953", "s1423"] {
        let spec = synth::find(name).expect("catalog circuit").scaled(8);
        certify_programs(name, &synth::generate(&spec), &cfg);
    }
}
