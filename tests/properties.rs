//! Workspace-level property-based tests (proptest) on the invariants
//! DESIGN.md promises.
//!
//! Gated behind the `proptest` feature because the offline build
//! environment cannot fetch the `proptest` crate; enabling the feature
//! requires registry access and re-adding the dev-dependency. The same
//! invariants run unconditionally, with the in-tree RNG, in
//! `tests/invariants.rs`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use fbt::bist::{Lfsr, Misr, Tpg, TpgSpec};
use fbt::fault::{all_transition_faults, BroadsideTest};
use fbt::netlist::synth::CircuitSpec;
use fbt::netlist::{synth, Netlist};
use fbt::sim::seq::simulate_sequence;
use fbt::sim::{tv, Bits, Trit};

fn arb_bits(len: usize) -> impl Strategy<Value = Bits> {
    prop::collection::vec(any::<bool>(), len).prop_map(|v| Bits::from_bools(&v))
}

fn small_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..6, 1usize..4, 2usize..8, 20usize..80, any::<u64>()).prop_map(
        |(pi, po, ff, gates, seed)| {
            let mut spec = CircuitSpec::new("prop", pi, po, ff, gates);
            spec.seed = seed;
            synth::generate(&spec)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 3-valued simulation refines 2-valued simulation: wherever the
    /// 3-valued result is specified, it matches the boolean result.
    #[test]
    fn tv_sim_refines_binary_sim(net in small_circuit(), seed in any::<u64>()) {
        let mut rng = fbt::netlist::rng::Rng::new(seed);
        let pi_b: Vec<bool> = (0..net.num_inputs()).map(|_| rng.bit()).collect();
        let st_b: Vec<bool> = (0..net.num_dffs()).map(|_| rng.bit()).collect();
        // Randomly X out some entries.
        let pi_t: Vec<Trit> = pi_b.iter().map(|&b| if rng.chance(1, 3) { Trit::X } else { Trit::from_bool(b) }).collect();
        let st_t: Vec<Trit> = st_b.iter().map(|&b| if rng.chance(1, 3) { Trit::X } else { Trit::from_bool(b) }).collect();
        let (tvals, _) = tv::simulate_frame_tv(&net, &pi_t, &st_t);

        let mut bvals = vec![false; net.num_nodes()];
        for (v, &id) in pi_b.iter().zip(net.inputs()) { bvals[id.index()] = *v; }
        for (v, &id) in st_b.iter().zip(net.dffs()) { bvals[id.index()] = *v; }
        fbt::sim::comb::eval_scalar(&net, &mut bvals);
        for id in net.node_ids() {
            if let Some(v) = tvals[id.index()].to_bool() {
                prop_assert_eq!(v, bvals[id.index()], "node {}", net.node_name(id));
            }
        }
    }

    /// Broadside tests extracted from a trajectory always have on-trajectory
    /// scan-in states and matching implied second states.
    #[test]
    fn extracted_tests_are_functional(net in small_circuit(), seed in any::<u64>()) {
        let spec = TpgSpec::standard(fbt::bist::cube::input_cube(&net));
        let mut tpg = Tpg::new(spec, seed);
        let pis = tpg.sequence(24);
        let init = Bits::zeros(net.num_dffs());
        let traj = simulate_sequence(&net, &init, &pis);
        let tests = fbt::core::extract::functional_tests(&pis, &traj.states);
        for (k, t) in tests.iter().enumerate() {
            prop_assert_eq!(&t.scan_in, &traj.states[2 * k]);
            prop_assert_eq!(t.second_state(&net), traj.states[2 * k + 1].clone());
        }
    }

    /// The LFSR never reaches the all-zero state from any seed.
    #[test]
    fn lfsr_avoids_zero(width in 2u32..20, seed in any::<u64>()) {
        let mut l = Lfsr::new(width, seed).unwrap();
        for _ in 0..500 {
            l.step();
            prop_assert_ne!(l.state(), 0);
        }
    }

    /// MISR signatures distinguish single-bit response differences.
    #[test]
    fn misr_detects_single_flip(
        responses in prop::collection::vec(arb_bits(12), 1..8),
        flip_cycle in any::<prop::sample::Index>(),
        flip_bit in 0usize..12,
    ) {
        let fc = flip_cycle.index(responses.len());
        let mut good = Misr::new(16);
        let mut bad = Misr::new(16);
        for (c, r) in responses.iter().enumerate() {
            good.absorb(r);
            let mut r2 = r.clone();
            if c == fc {
                r2.set(flip_bit, !r2.get(flip_bit));
            }
            bad.absorb(&r2);
        }
        prop_assert_ne!(good.signature(), bad.signature());
    }

    /// Fault simulation detection is monotone in the test set: a superset of
    /// tests never detects fewer faults.
    #[test]
    fn fault_sim_monotone(net in small_circuit(), seed in any::<u64>()) {
        let mut rng = fbt::netlist::rng::Rng::new(seed);
        let faults = all_transition_faults(&net);
        let mk = |rng: &mut fbt::netlist::rng::Rng| BroadsideTest::new(
            (0..net.num_dffs()).map(|_| rng.bit()).collect(),
            (0..net.num_inputs()).map(|_| rng.bit()).collect(),
            (0..net.num_inputs()).map(|_| rng.bit()).collect(),
        );
        let tests: Vec<BroadsideTest> = (0..24).map(|_| mk(&mut rng)).collect();
        use fbt::fault::{FaultSimEngine, FaultSimOptions, TestSet};
        let mut fsim = fbt::fault::PackedParallelSim::new(&net);
        let mut det_half = vec![false; faults.len()];
        fsim.simulate(
            TestSet::Broadside(&tests[..12]),
            &faults,
            &mut det_half,
            &FaultSimOptions::new(),
        );
        let mut det_full = vec![false; faults.len()];
        fsim.simulate(
            TestSet::Broadside(&tests),
            &faults,
            &mut det_full,
            &FaultSimOptions::new(),
        );
        for (h, f) in det_half.iter().zip(&det_full) {
            prop_assert!(!h || *f, "superset lost a detection");
        }
    }

    /// Trajectory switching activity is always within [0, 1], and the
    /// recorded states chain consistently (s(i+1) is the response to
    /// (s(i), p(i))).
    #[test]
    fn trajectory_consistency(net in small_circuit(), seed in any::<u64>()) {
        let spec = TpgSpec::standard(fbt::bist::cube::input_cube(&net));
        let pis = Tpg::new(spec, seed).sequence(16);
        let init = Bits::zeros(net.num_dffs());
        let traj = simulate_sequence(&net, &init, &pis);
        for s in traj.swa.iter().flatten() {
            prop_assert!(*s >= 0.0 && *s <= 1.0);
        }
        for (i, p) in pis.iter().enumerate() {
            let t = BroadsideTest::new(traj.states[i].clone(), p.clone(), p.clone());
            prop_assert_eq!(t.second_state(&net), traj.states[i + 1].clone());
        }
    }

    /// Collapsing never loses detection information: a test detects some
    /// fault of the full list iff it detects some representative.
    #[test]
    fn collapse_preserves_detection(net in small_circuit(), seed in any::<u64>()) {
        let mut rng = fbt::netlist::rng::Rng::new(seed);
        let full = all_transition_faults(&net);
        let reps = fbt::fault::collapse(&net, &full);
        let t = BroadsideTest::new(
            (0..net.num_dffs()).map(|_| rng.bit()).collect(),
            (0..net.num_inputs()).map(|_| rng.bit()).collect(),
            (0..net.num_inputs()).map(|_| rng.bit()).collect(),
        );
        use fbt::fault::FaultSimEngine;
        let mut fsim = fbt::fault::PackedParallelSim::new(&net);
        let full_detected: usize = full.iter().filter(|f| fsim.detects(&t, f)).count();
        let reps_detected: usize = reps.iter().filter(|f| fsim.detects(&t, f)).count();
        // Representatives are equivalent to their class: the count over the
        // full list equals the count over classes weighted by class size,
        // so "any detected" agrees.
        prop_assert_eq!(full_detected > 0, reps_detected > 0);
    }
}
