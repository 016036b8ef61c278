//! Randomized invariant tests, driven by the in-tree RNG so they run in the
//! offline build environment.
//!
//! Each test sweeps a fixed number of randomly generated circuits and
//! stimulus sets from fixed seeds, checking the invariants DESIGN.md
//! promises.

use fbt::bist::{Lfsr, Misr, Tpg, TpgSpec};
use fbt::fault::{
    all_transition_faults, BroadsideTest, FaultSimEngine, FaultSimOptions, PackedParallelSim,
    TestSet,
};
use fbt::netlist::rng::Rng;
use fbt::netlist::synth::CircuitSpec;
use fbt::netlist::{synth, Netlist};
use fbt::sim::seq::simulate_sequence;
use fbt::sim::{tv, Bits, Trit};

/// Derive a small random circuit from one RNG draw: 2–5 inputs, 1–3
/// outputs, 2–7 flip-flops and 20–79 gates.
fn small_circuit(rng: &mut Rng) -> Netlist {
    let pi = 2 + (rng.next_u64() % 4) as usize; // 2..6
    let po = 1 + (rng.next_u64() % 3) as usize; // 1..4
    let ff = 2 + (rng.next_u64() % 6) as usize; // 2..8
    let gates = 20 + (rng.next_u64() % 60) as usize; // 20..80
    let mut spec = CircuitSpec::new("invariant", pi, po, ff, gates);
    spec.seed = rng.next_u64();
    synth::generate(&spec)
}

fn random_bits(rng: &mut Rng, len: usize) -> Bits {
    (0..len).map(|_| rng.bit()).collect()
}

/// 3-valued simulation refines 2-valued simulation: wherever the 3-valued
/// result is specified, it matches the boolean result.
#[test]
fn tv_sim_refines_binary_sim() {
    let mut rng = Rng::new(0x7111);
    for _ in 0..40 {
        let net = small_circuit(&mut rng);
        let pi_b: Vec<bool> = (0..net.num_inputs()).map(|_| rng.bit()).collect();
        let st_b: Vec<bool> = (0..net.num_dffs()).map(|_| rng.bit()).collect();
        // Randomly X out some entries.
        let x_out = |rng: &mut Rng, b: bool| {
            if rng.chance(1, 3) {
                Trit::X
            } else {
                Trit::from_bool(b)
            }
        };
        let pi_t: Vec<Trit> = pi_b.iter().map(|&b| x_out(&mut rng, b)).collect();
        let st_t: Vec<Trit> = st_b.iter().map(|&b| x_out(&mut rng, b)).collect();
        let (tvals, _) = tv::simulate_frame_tv(&net, &pi_t, &st_t);

        let mut bvals = vec![false; net.num_nodes()];
        for (v, &id) in pi_b.iter().zip(net.inputs()) {
            bvals[id.index()] = *v;
        }
        for (v, &id) in st_b.iter().zip(net.dffs()) {
            bvals[id.index()] = *v;
        }
        fbt::sim::comb::eval_scalar(&net, &mut bvals);
        for id in net.node_ids() {
            if let Some(v) = tvals[id.index()].to_bool() {
                assert_eq!(v, bvals[id.index()], "node {}", net.node_name(id));
            }
        }
    }
}

/// Broadside tests extracted from a trajectory always have on-trajectory
/// scan-in states and matching implied second states.
#[test]
fn extracted_tests_are_functional() {
    let mut rng = Rng::new(0x7222);
    for _ in 0..25 {
        let net = small_circuit(&mut rng);
        let spec = TpgSpec::standard(fbt::bist::cube::input_cube(&net));
        let mut tpg = Tpg::new(spec, rng.next_u64());
        let pis = tpg.sequence(24);
        let init = Bits::zeros(net.num_dffs());
        let traj = simulate_sequence(&net, &init, &pis);
        let tests = fbt::core::extract::functional_tests(&pis, &traj.states);
        for (k, t) in tests.iter().enumerate() {
            assert_eq!(&t.scan_in, &traj.states[2 * k]);
            assert_eq!(t.second_state(&net), traj.states[2 * k + 1].clone());
        }
    }
}

/// The LFSR never reaches the all-zero state from any seed.
#[test]
fn lfsr_avoids_zero() {
    let mut rng = Rng::new(0x7333);
    for width in 2u32..20 {
        for _ in 0..4 {
            let mut l = Lfsr::new(width, rng.next_u64()).unwrap();
            for _ in 0..500 {
                l.step();
                assert_ne!(l.state(), 0, "width {width}");
            }
        }
    }
}

/// MISR signatures distinguish single-bit response differences.
#[test]
fn misr_detects_single_flip() {
    let mut rng = Rng::new(0x7444);
    for _ in 0..60 {
        let n_resp = 1 + (rng.next_u64() % 7) as usize;
        let responses: Vec<Bits> = (0..n_resp).map(|_| random_bits(&mut rng, 12)).collect();
        let fc = (rng.next_u64() as usize) % n_resp;
        let flip_bit = (rng.next_u64() as usize) % 12;
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
        assert_ne!(good.signature(), bad.signature());
    }
}

/// Fault simulation detection is monotone in the test set: a superset of
/// tests never detects fewer faults.
#[test]
fn fault_sim_monotone() {
    let mut rng = Rng::new(0x7555);
    for _ in 0..25 {
        let net = small_circuit(&mut rng);
        let faults = all_transition_faults(&net);
        let tests: Vec<BroadsideTest> = (0..24)
            .map(|_| {
                BroadsideTest::new(
                    random_bits(&mut rng, net.num_dffs()),
                    random_bits(&mut rng, net.num_inputs()),
                    random_bits(&mut rng, net.num_inputs()),
                )
            })
            .collect();
        let mut fsim = PackedParallelSim::new(&net);
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
            assert!(!h || *f, "superset lost a detection");
        }
    }
}

/// Trajectory switching activity is always within [0, 1], and the recorded
/// states chain consistently (s(i+1) is the response to (s(i), p(i))).
#[test]
fn trajectory_consistency() {
    let mut rng = Rng::new(0x7666);
    for _ in 0..25 {
        let net = small_circuit(&mut rng);
        let spec = TpgSpec::standard(fbt::bist::cube::input_cube(&net));
        let pis = Tpg::new(spec, rng.next_u64()).sequence(16);
        let init = Bits::zeros(net.num_dffs());
        let traj = simulate_sequence(&net, &init, &pis);
        for s in traj.swa.iter().flatten() {
            assert!(*s >= 0.0 && *s <= 1.0);
        }
        for (i, p) in pis.iter().enumerate() {
            let t = BroadsideTest::new(traj.states[i].clone(), p.clone(), p.clone());
            assert_eq!(t.second_state(&net), traj.states[i + 1].clone());
        }
    }
}

/// Collapsing never loses detection information: a test detects some fault
/// of the full list iff it detects some representative.
#[test]
fn collapse_preserves_detection() {
    let mut rng = Rng::new(0x7777);
    for _ in 0..25 {
        let net = small_circuit(&mut rng);
        let full = all_transition_faults(&net);
        let reps = fbt::fault::collapse(&net, &full);
        let t = BroadsideTest::new(
            random_bits(&mut rng, net.num_dffs()),
            random_bits(&mut rng, net.num_inputs()),
            random_bits(&mut rng, net.num_inputs()),
        );
        let mut fsim = PackedParallelSim::new(&net);
        let full_detected: usize = full.iter().filter(|f| fsim.detects(&t, f)).count();
        let reps_detected: usize = reps.iter().filter(|f| fsim.detects(&t, f)).count();
        // Representatives are equivalent to their class, so "any detected"
        // agrees between the full list and the collapsed one.
        assert_eq!(full_detected > 0, reps_detected > 0);
    }
}
