//! Differential tests: the packed-parallel PPSFP engine must agree with the
//! scalar oracle in `common` on every circuit, every thread count and every
//! simulation mode. The oracle simulates one test and one fault at a time
//! through the interpreter and shares no code with the engine, so agreement
//! here is the acceptance gate for word packing, event-driven propagation
//! on the compiled kernel, fault dropping and fault sharding.

mod common;

use common::Reference;
use fbt_fault::{
    all_transition_faults, collapse, BroadsideTest, FaultSimEngine, FaultSimOptions,
    PackedParallelSim, TestSet, Transition, TransitionFault, TwoPatternTest,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth::CircuitSpec;
use fbt_netlist::{s27, synth, GateKind, Netlist, NetlistBuilder};
use fbt_sim::Bits;

/// Thread counts exercised for the parallel engine. The host may have any
/// number of cores; forcing explicit counts (including more threads than
/// cores, and odd shard splits) exercises the sharding logic regardless.
const THREADS: [usize; 4] = [1, 2, 3, 4];

fn random_tests(net: &Netlist, n: usize, rng: &mut Rng) -> Vec<BroadsideTest> {
    (0..n)
        .map(|_| {
            BroadsideTest::new(
                (0..net.num_dffs()).map(|_| rng.bit()).collect(),
                (0..net.num_inputs()).map(|_| rng.bit()).collect(),
                (0..net.num_inputs()).map(|_| rng.bit()).collect(),
            )
        })
        .collect()
}

/// The circuit sweep: s27 plus a spread of generated circuits (varying
/// size, reconvergence and sequential depth from the seed).
fn circuits() -> Vec<Netlist> {
    let mut nets = vec![s27()];
    let mut rng = Rng::new(0xD1FF);
    for _ in 0..8 {
        let pi = 2 + (rng.next_u64() % 5) as usize;
        let po = 1 + (rng.next_u64() % 4) as usize;
        let ff = 2 + (rng.next_u64() % 8) as usize;
        let gates = 20 + (rng.next_u64() % 120) as usize;
        let mut spec = CircuitSpec::new("diff", pi, po, ff, gates);
        spec.seed = rng.next_u64();
        nets.push(synth::generate(&spec));
    }
    nets
}

fn faults_for(net: &Netlist) -> Vec<TransitionFault> {
    collapse(net, &all_transition_faults(net))
}

/// Simulate `tests` from the `start` flags at every thread count, each on a
/// fresh engine, and compare the outcome and the updated flags with the
/// oracle's.
fn assert_matches_oracle(
    net: &Netlist,
    tests: TestSet<'_>,
    faults: &[TransitionFault],
    reference: &Reference,
    start: &[bool],
    opts: &FaultSimOptions,
) {
    let want = reference.outcome(start, opts);
    for threads in THREADS {
        let mut det = start.to_vec();
        let out = PackedParallelSim::new(net).simulate(
            tests,
            faults,
            &mut det,
            &opts.clone().threads(threads),
        );
        let ctx = format!("{} {opts:?} threads={threads}", net.name());
        want.check(&out, &ctx);
        assert_eq!(det, want.flags(start), "{ctx}: flags");
    }
}

/// Plain fault-dropping runs match the oracle at every thread count, both
/// from clean flags and from partially pre-detected flags.
#[test]
fn plain_run_is_bit_identical() {
    let opts = FaultSimOptions::new();
    let mut rng = Rng::new(1);
    for net in circuits() {
        let faults = faults_for(&net);
        let tests = random_tests(&net, 150, &mut rng);
        let set = TestSet::Broadside(&tests);
        let reference = Reference::single(&net, set, &faults);
        assert_matches_oracle(
            &net,
            set,
            &faults,
            &reference,
            &vec![false; faults.len()],
            &opts,
        );
        // Pre-set some flags to exercise dropping from a non-clean start.
        let preset: Vec<bool> = (0..faults.len()).map(|_| rng.chance(1, 4)).collect();
        assert_matches_oracle(&net, set, &faults, &reference, &preset, &opts);
    }
    // A second, independent draw on the first five circuits.
    let mut rng = Rng::new(5);
    for net in circuits().into_iter().take(5) {
        let faults = faults_for(&net);
        let tests = random_tests(&net, 150, &mut rng);
        let set = TestSet::Broadside(&tests);
        let reference = Reference::single(&net, set, &faults);
        assert_matches_oracle(
            &net,
            set,
            &faults,
            &reference,
            &vec![false; faults.len()],
            &opts,
        );
    }
}

/// Small ISCAS catalog circuits and larger random netlists, against the
/// uncollapsed fault list, with n-detect counts.
#[test]
fn iscas_and_random_netlists_match_the_oracle() {
    let mut rng = Rng::new(0xFA57);
    let mut nets: Vec<Netlist> = ["s298", "s386", "s526", "s832"]
        .iter()
        .map(|n| synth::generate(&synth::find(n).unwrap()))
        .collect();
    for _ in 0..4 {
        let pi = 2 + rng.below(7);
        let po = 1 + rng.below(4);
        let ff = 1 + rng.below(10);
        let gates = 30 + rng.below(220);
        let mut spec = CircuitSpec::new("ck", pi, po, ff, gates);
        spec.seed = rng.next_u64();
        nets.push(synth::generate(&spec));
    }
    let opts = FaultSimOptions::new().n_detect(2);
    for net in &nets {
        let faults = all_transition_faults(net);
        let tests = random_tests(net, 70, &mut rng);
        let set = TestSet::Broadside(&tests);
        let reference = Reference::single(net, set, &faults);
        assert_matches_oracle(
            net,
            set,
            &faults,
            &reference,
            &vec![false; faults.len()],
            &opts,
        );
    }
}

/// 1, 63, 64 and 65 tests cover the partial-word lane masks: a kernel bug
/// that reads beyond the lane mask shows up only here.
#[test]
fn partial_lane_words_match_the_oracle() {
    let net = s27();
    let faults = all_transition_faults(&net);
    let mut rng = Rng::new(0x1A5E);
    for n in [1usize, 63, 64, 65] {
        let tests = random_tests(&net, n, &mut rng);
        let set = TestSet::Broadside(&tests);
        let reference = Reference::single(&net, set, &faults);
        let clean = vec![false; faults.len()];
        assert_matches_oracle(
            &net,
            set,
            &faults,
            &reference,
            &clean,
            &FaultSimOptions::new(),
        );
    }
}

/// Two-pattern simulation with explicit (held, possibly unreachable) second
/// states matches the oracle at every thread count.
#[test]
fn two_pattern_run_is_bit_identical() {
    let mut cases = Vec::new();
    let mut rng = Rng::new(2);
    for net in circuits() {
        let base = random_tests(&net, 100, &mut rng);
        let tests: Vec<TwoPatternTest> = base
            .iter()
            .map(|t| {
                let mut tp = TwoPatternTest::from_broadside(&net, t);
                // Flip a random flip-flop in the second state half the time
                // to exercise genuinely unreachable states.
                if rng.bit() {
                    let k = (rng.next_u64() as usize) % tp.s2.len();
                    let v = tp.s2.get(k);
                    tp.s2.set(k, !v);
                }
                tp
            })
            .collect();
        cases.push((faults_for(&net), net, tests));
    }
    // The state-holding DFT's explicit second states on s27 against the
    // uncollapsed fault list; natural second states alone would mask a bug
    // in the packed second-state overlay.
    let net = s27();
    let mut rng = Rng::new(0x7A11);
    let broadside = random_tests(&net, 40, &mut rng);
    let tests: Vec<TwoPatternTest> = broadside
        .iter()
        .map(|t| {
            let mut tp = TwoPatternTest::from_broadside(&net, t);
            if rng.bit() {
                let flip = rng.below(net.num_dffs());
                let v = tp.s2.get(flip);
                tp.s2.set(flip, !v);
            }
            tp
        })
        .collect();
    cases.push((all_transition_faults(&net), net, tests));

    for (faults, net, tests) in &cases {
        let set = TestSet::TwoPattern(tests);
        let reference = Reference::single(net, set, faults);
        let clean = vec![false; faults.len()];
        assert_matches_oracle(
            net,
            set,
            faults,
            &reference,
            &clean,
            &FaultSimOptions::new(),
        );
    }
}

/// N-detect counts match the oracle exactly (counts, not just final flags)
/// at every thread count, for several caps, and so does the trait's
/// `n_detect_profile`.
#[test]
fn n_detect_profiles_are_identical() {
    let mut rng = Rng::new(3);
    for net in circuits().into_iter().take(5) {
        let faults = faults_for(&net);
        let tests = random_tests(&net, 200, &mut rng);
        let set = TestSet::Broadside(&tests);
        let reference = Reference::single(&net, set, &faults);
        let clean = vec![false; faults.len()];
        for cap in [1usize, 2, 5, 16] {
            let opts = FaultSimOptions::new().n_detect(cap.max(2));
            assert_matches_oracle(&net, set, &faults, &reference, &clean, &opts);
            let counts: Vec<usize> = reference
                .outcome(&clean, &opts)
                .counts
                .expect("cap above 1")
                .into_iter()
                .map(|c| c.min(cap))
                .collect();
            assert_eq!(
                PackedParallelSim::new(&net).n_detect_profile(&tests, &faults, cap),
                counts,
                "{} cap={cap}",
                net.name()
            );
        }
    }
}

/// Detection matrices (no fault dropping) match the oracle entry for entry,
/// in either order of setting the matrix and dropping options.
#[test]
fn detection_matrices_are_identical() {
    let mut rng = Rng::new(4);
    for net in circuits().into_iter().take(5) {
        let faults = faults_for(&net);
        let tests = random_tests(&net, 130, &mut rng);
        let reference = Reference::single(&net, TestSet::Broadside(&tests), &faults);
        let clean = vec![false; faults.len()];
        let want = reference.outcome(&clean, &FaultSimOptions::new().detection_matrix(true));
        want.check_matrix(
            &PackedParallelSim::new(&net).detection_matrix(&tests, &faults),
            net.name(),
        );
        for opts in [
            FaultSimOptions::new().detection_matrix(true),
            FaultSimOptions::new()
                .detection_matrix(true)
                .fault_dropping(true),
        ] {
            for threads in THREADS {
                let mut det = clean.clone();
                let out = PackedParallelSim::new(&net).simulate(
                    TestSet::Broadside(&tests),
                    &faults,
                    &mut det,
                    &opts.clone().threads(threads),
                );
                let ctx = format!("{} {opts:?} threads={threads}", net.name());
                want.check_matrix(out.matrix.as_ref().expect("matrix requested"), &ctx);
                want.check(&out, &ctx);
            }
        }
    }
}

/// Repeated calls on one engine instance (reused worker scratch) stay
/// identical to fresh instances.
#[test]
fn warm_engine_state_does_not_leak_between_calls() {
    let net = s27();
    let faults = faults_for(&net);
    let mut rng = Rng::new(6);
    let mut warm = PackedParallelSim::new(&net);
    for round in 0..5 {
        let tests = random_tests(&net, 90, &mut rng);
        let mut fresh = PackedParallelSim::new(&net);
        let mut det_warm = vec![false; faults.len()];
        let mut det_fresh = vec![false; faults.len()];
        let opts = FaultSimOptions::new();
        warm.simulate(TestSet::Broadside(&tests), &faults, &mut det_warm, &opts);
        fresh.simulate(TestSet::Broadside(&tests), &faults, &mut det_fresh, &opts);
        assert_eq!(det_warm, det_fresh, "round {round}");
    }
}

/// The oracle itself, on a circuit small enough to check by hand: one
/// fault whose effect reaches only a flip-flop D input, one whose effect
/// reaches only a primary output, and one whose stuck value would be seen
/// but is never launched.
#[test]
fn oracle_sees_flip_flop_inputs_and_outputs_and_requires_a_launch() {
    let mut b = NetlistBuilder::new("hand");
    b.input("a").unwrap();
    b.input("b").unwrap();
    b.dff("q", "n").unwrap();
    b.gate(GateKind::Not, "n", &["a"]).unwrap(); // drives only q's D input
    b.gate(GateKind::And, "z", &["q", "b"]).unwrap(); // drives only a PO
    b.gate(GateKind::Or, "w", &["a", "b"]).unwrap(); // drives only a PO
    b.output("z").unwrap();
    b.output("w").unwrap();
    let net = b.finish().unwrap();
    let line = |name| net.find(name).unwrap();
    // Launch: q = 1, a = 1, b = 1, so n = 0, z = 1, w = 1.
    // Capture: q = n = 0, a = 0, b = 1, so n = 1, z = 0, w = 1.
    let test = BroadsideTest::new(
        Bits::from_str01("1"),
        Bits::from_str01("11"),
        Bits::from_str01("01"),
    );
    let faults = [
        // n rises 0 -> 1; held at 0 it changes only q's D input.
        TransitionFault::new(line("n"), Transition::Rise),
        // z falls 1 -> 0; held at 1 it changes only the PO z.
        TransitionFault::new(line("z"), Transition::Fall),
        // w is 1 in both frames: held at 0 the PO w would change, but
        // the launch frame never sets w to 0.
        TransitionFault::new(line("w"), Transition::Rise),
    ];
    let verdicts: Vec<bool> = faults
        .iter()
        .map(|f| common::detects(&net, &test, f))
        .collect();
    assert_eq!(verdicts, [true, true, false]);
    let mut engine = PackedParallelSim::new(&net);
    let engine_verdicts: Vec<bool> = faults.iter().map(|f| engine.detects(&test, f)).collect();
    assert_eq!(engine_verdicts, verdicts);
}
