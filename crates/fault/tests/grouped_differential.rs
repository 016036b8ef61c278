//! Group-isolation differential tests: `simulate_groups` on a batch of N
//! candidate groups must give, group by group, what the scalar oracle in
//! `common` computes for that group alone from the shared baseline flags.
//! This is the acceptance gate for the candidate-packed speculation path:
//! the packed engine interleaves tests from different groups in the same
//! 64-lane words and lane-masks fault dropping per group, and none of that
//! may be observable in any outcome field.

mod common;

use common::{check_all, Reference};
use fbt_fault::{
    all_transition_faults, collapse, BroadsideTest, FaultSimEngine, FaultSimOptions,
    PackedParallelSim, TestGroup, TransitionFault, TwoPatternTest,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth::CircuitSpec;
use fbt_netlist::{s27, synth, Netlist};

const THREADS: [usize; 3] = [1, 2, 3];

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

/// s27 plus the catalog circuits named in the issue plus synthetic random
/// circuits, so the packing is exercised on real reconvergence patterns.
fn circuits() -> Vec<Netlist> {
    let mut nets = vec![
        s27(),
        synth::generate(&synth::find("s298").expect("catalog circuit")),
        synth::generate(&synth::find("s344").expect("catalog circuit")),
    ];
    let mut rng = Rng::new(0x6E0C);
    for _ in 0..3 {
        let pi = 2 + (rng.next_u64() % 5) as usize;
        let po = 1 + (rng.next_u64() % 4) as usize;
        let ff = 2 + (rng.next_u64() % 8) as usize;
        let gates = 20 + (rng.next_u64() % 100) as usize;
        let mut spec = CircuitSpec::new("gdiff", pi, po, ff, gates);
        spec.seed = rng.next_u64();
        nets.push(synth::generate(&spec));
    }
    nets
}

fn faults_for(net: &Netlist) -> Vec<TransitionFault> {
    collapse(net, &all_transition_faults(net))
}

/// Unequal group lengths, deliberately straddling 64-lane word boundaries
/// (including empty and >64-test groups for the small batch sizes).
fn group_lengths(batch: usize, rng: &mut Rng) -> Vec<usize> {
    (0..batch)
        .map(|i| match (batch, i) {
            (2, 0) => 70,
            (2, 1) => 13,
            (8, 0) => 0,
            (8, 1) => 64,
            _ if batch <= 8 => 1 + (rng.next_u64() % 50) as usize,
            _ => (rng.next_u64() % 9) as usize,
        })
        .collect()
}

/// Run one grouped call at every thread count, each on a fresh engine, and
/// compare it with the oracle.
fn assert_matches_oracle(
    net: &Netlist,
    groups: &[TestGroup<'_>],
    faults: &[TransitionFault],
    reference: &Reference,
    baseline: &[bool],
    opts: &FaultSimOptions,
) {
    let want = reference.outcomes(baseline, opts);
    for threads in THREADS {
        let mut packed = PackedParallelSim::new(net);
        let outs = packed.simulate_groups(groups, faults, baseline, &opts.clone().threads(threads));
        let ctx = format!("{} {opts:?} threads={threads}", net.name());
        check_all(&outs, &want, &ctx);
    }
}

#[test]
fn grouped_equals_independent_oracle_runs() {
    let mut rng = Rng::new(11);
    for net in circuits() {
        let faults = faults_for(&net);
        // A non-clean baseline: some faults are already detected.
        let baseline: Vec<bool> = (0..faults.len()).map(|_| rng.chance(1, 4)).collect();
        for batch in [2usize, 8, 64] {
            let lens = group_lengths(batch, &mut rng);
            let sets: Vec<Vec<BroadsideTest>> = lens
                .iter()
                .map(|&n| random_tests(&net, n, &mut rng))
                .collect();
            let groups: Vec<TestGroup<'_>> = sets.iter().map(|s| TestGroup::new(&s[..])).collect();
            let reference = Reference::new(&net, &groups, &faults);
            for n_detect in [1usize, 4] {
                for dropping in [true, false] {
                    let opts = FaultSimOptions::new()
                        .n_detect(n_detect)
                        .fault_dropping(dropping);
                    assert_matches_oracle(&net, &groups, &faults, &reference, &baseline, &opts);
                }
            }
        }
    }
}

/// Group-local detection matrices must come out as if each group were
/// simulated on its own, despite being interleaved into shared words.
#[test]
fn grouped_bookkeeping_is_group_local() {
    let mut rng = Rng::new(21);
    for net in circuits().into_iter().take(4) {
        let faults = faults_for(&net);
        let baseline = vec![false; faults.len()];
        let lens = [37usize, 90, 3, 64, 11];
        let sets: Vec<Vec<BroadsideTest>> = lens
            .iter()
            .map(|&n| random_tests(&net, n, &mut rng))
            .collect();
        let groups: Vec<TestGroup<'_>> = sets.iter().map(|s| TestGroup::new(&s[..])).collect();
        let reference = Reference::new(&net, &groups, &faults);
        let opts = FaultSimOptions::new().detection_matrix(true);
        assert_matches_oracle(&net, &groups, &faults, &reference, &baseline, &opts);
        let outs = PackedParallelSim::new(&net).simulate_groups(&groups, &faults, &baseline, &opts);
        assert!(outs.iter().all(|o| o.matrix.is_some()), "{}", net.name());
    }
}

/// Two-pattern groups (explicit, possibly unreachable second states) can
/// share words with broadside groups without cross-talk.
#[test]
fn mixed_test_kind_groups_share_words() {
    let mut rng = Rng::new(31);
    for net in circuits().into_iter().take(4) {
        let faults = faults_for(&net);
        let baseline = vec![false; faults.len()];
        let bs = random_tests(&net, 41, &mut rng);
        let tp: Vec<TwoPatternTest> = random_tests(&net, 29, &mut rng)
            .iter()
            .map(|t| {
                let mut tp = TwoPatternTest::from_broadside(&net, t);
                if rng.bit() {
                    let k = (rng.next_u64() as usize) % tp.s2.len();
                    let v = tp.s2.get(k);
                    tp.s2.set(k, !v);
                }
                tp
            })
            .collect();
        let bs2 = random_tests(&net, 17, &mut rng);
        let groups = [
            TestGroup::new(&bs[..]),
            TestGroup::new(&tp[..]),
            TestGroup::new(&bs2[..]),
        ];
        let reference = Reference::new(&net, &groups, &faults);
        assert_matches_oracle(
            &net,
            &groups,
            &faults,
            &reference,
            &baseline,
            &FaultSimOptions::new(),
        );
    }
}

/// `until_first_accept` returns complete outcomes up to and including the
/// first accepting group, cut-off markers after it — at every thread count
/// — and the complete prefix matches the unrestricted grouped call.
#[test]
fn until_first_accept_prefix_semantics() {
    let mut rng = Rng::new(41);
    for net in circuits().into_iter().take(4) {
        let faults = faults_for(&net);
        let baseline = vec![false; faults.len()];
        // Two rejecting groups (empty), then accepting ones.
        let empty: Vec<BroadsideTest> = Vec::new();
        let b = random_tests(&net, 80, &mut rng);
        let c = random_tests(&net, 20, &mut rng);
        let d = random_tests(&net, 33, &mut rng);
        let groups = [
            TestGroup::new(&empty[..]),
            TestGroup::new(&empty[..]),
            TestGroup::new(&b[..]),
            TestGroup::new(&c[..]),
            TestGroup::new(&d[..]),
        ];
        let reference = Reference::new(&net, &groups, &faults);
        let full = reference.outcomes(&baseline, &FaultSimOptions::new());
        let acceptor = full
            .iter()
            .position(|o| !o.newly.is_empty())
            .expect("some group must accept");
        let opts = FaultSimOptions::new().until_first_accept(true);
        assert_matches_oracle(&net, &groups, &faults, &reference, &baseline, &opts);
        for threads in THREADS {
            let mut packed = PackedParallelSim::new(&net);
            let outs =
                packed.simulate_groups(&groups, &faults, &baseline, &opts.clone().threads(threads));
            for (g, out) in outs.iter().enumerate() {
                let ctx = format!("{} group {g} threads={threads}", net.name());
                if g <= acceptor {
                    full[g].check(out, &ctx);
                } else {
                    assert!(!out.complete, "{ctx}");
                    assert_eq!(out.newly_detected, 0, "{ctx}");
                }
            }
        }

        // When no group can accept (baseline saturated), nothing is cut off.
        let saturated = vec![true; faults.len()];
        let mut packed = PackedParallelSim::new(&net);
        let outs = packed.simulate_groups(&groups, &faults, &saturated, &opts);
        assert!(outs.iter().all(|o| o.complete && o.newly_detected == 0));
    }
}

/// An s27 test list split into 1, 4 and 16 groups, under plain runs,
/// `until_first_accept`, and n-detect counts with a detection matrix,
/// against the uncollapsed fault list.
#[test]
fn s27_batches_match_the_oracle() {
    let net = s27();
    let faults = all_transition_faults(&net);
    let mut rng = Rng::new(0xC01D);
    let tests = random_tests(&net, 96, &mut rng);
    let baseline = vec![false; faults.len()];
    for batch in [1usize, 4, 16] {
        let per = tests.len().div_ceil(batch);
        let groups: Vec<TestGroup<'_>> = tests.chunks(per).map(TestGroup::new).collect();
        let reference = Reference::new(&net, &groups, &faults);
        for opts in [
            FaultSimOptions::new(),
            FaultSimOptions::new().until_first_accept(true),
            FaultSimOptions::new().n_detect(3).detection_matrix(true),
        ] {
            assert_matches_oracle(&net, &groups, &faults, &reference, &baseline, &opts);
        }
    }
}
