//! Cross-crate integration tests: the complete flows a user of the library
//! would run, spanning netlist → simulation → fault models → BIST hardware →
//! the paper's generation methods.

use fbt::bist::holding::HoldSet;
use fbt::bist::{CycleCounter, Misr, Tpg, TpgSpec};
use fbt::core::driver::DrivingBlock;
use fbt::core::{
    generate_constrained, generate_unconstrained, improve_with_holding, swafunc,
    FunctionalBistConfig,
};
use fbt::fault::{FaultSimEngine, PackedParallelSim};
use fbt::netlist::{s27, synth};
use fbt::sim::seq::{simulate_sequence, SeqSim};
use fbt::sim::Bits;

#[test]
fn full_unconstrained_flow_on_catalog_circuit() {
    let net = synth::generate(&synth::find("s298").unwrap());
    let cfg = FunctionalBistConfig {
        seq_len: 200,
        ..FunctionalBistConfig::smoke()
    };
    let out = generate_unconstrained(&net, &cfg);
    assert!(
        out.fault_coverage() > 30.0,
        "s298-class coverage too low: {:.1}%",
        out.fault_coverage()
    );
    // Every scan-in state of every applied test is reachable: replay each
    // kept seed's trajectory and verify the extracted states are traversed.
    let spec = TpgSpec {
        lfsr_width: cfg.lfsr_width,
        m: cfg.m,
        cube: fbt::bist::cube::input_cube(&net),
    };
    for &seed in &out.seeds {
        let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
        let traj = simulate_sequence(&net, &Bits::zeros(net.num_dffs()), &pis);
        let tests = fbt::core::extract::functional_tests(&pis, &traj.states);
        for (k, t) in tests.iter().enumerate() {
            assert_eq!(
                t.scan_in,
                traj.states[2 * k],
                "scan-in state off-trajectory"
            );
        }
    }
}

#[test]
fn constrained_flow_respects_functional_power_envelope() {
    let net = synth::generate(&synth::find("s386").unwrap());
    let cfg = FunctionalBistConfig::smoke();
    let driver_net = synth::generate(&synth::find("s953").unwrap());
    let driving = DrivingBlock::Circuit(driver_net);
    assert!(driving.can_drive(&net));
    let bound = swafunc(&net, &driving, &cfg);
    assert!(bound > 0.0 && bound < 1.0);
    let out = generate_constrained(&net, bound, &cfg);
    assert!(out.peak_swa <= bound + 1e-12);
    // The constrained run can only apply tests whose every cycle respects
    // the bound; verify against an independent replay.
    let tests = fbt::core::constrained::replay_tests(&net, &out, &cfg);
    assert_eq!(tests.len(), out.tests_applied);
}

#[test]
fn holding_flow_improves_or_preserves_coverage_under_bound() {
    let net = s27();
    let cfg = FunctionalBistConfig::smoke();
    let bound = swafunc(&net, &DrivingBlock::Buffers, &cfg) * 0.7;
    let base = generate_constrained(&net, bound, &cfg);
    let out = improve_with_holding(&net, bound, &cfg, &base);
    assert!(out.final_coverage() >= base.fault_coverage() - 1e-9);
    assert!(out.peak_swa <= bound + 1e-12);
    // The selected hold sets partition (a subset of) the flip-flops.
    let mut seen = vec![false; net.num_dffs()];
    for s in &out.sets {
        for &m in &s.members {
            assert!(!seen[m]);
            seen[m] = true;
        }
    }
}

#[test]
fn bist_hardware_applies_the_same_tests_the_software_model_predicts() {
    // Cycle-accurate agreement between the TPG hardware model and the
    // trajectory used for fault simulation: drive the circuit directly from
    // the TPG and compare with the recorded trajectory.
    let net = s27();
    let spec = TpgSpec::standard(fbt::bist::cube::input_cube(&net));
    let mut tpg = Tpg::new(spec.clone(), 0xBEEF);
    let pis = tpg.sequence(40);
    let traj = simulate_sequence(&net, &Bits::zeros(3), &pis);

    let mut tpg2 = Tpg::new(spec, 0xBEEF);
    let mut sim = SeqSim::new(&net, &Bits::zeros(3));
    let mut counter = CycleCounter::new();
    let mut misr = Misr::new(16);
    for (c, expected) in pis.iter().enumerate() {
        let v = tpg2.next_vector();
        assert_eq!(&v, expected, "TPG replay diverged at cycle {c}");
        let r = sim.step(&v);
        assert_eq!(
            r.next_state,
            traj.states[c + 1],
            "state diverged at cycle {c}"
        );
        if counter.test_apply(1) {
            misr.absorb(&r.outputs);
        }
        counter.tick();
    }
    // The MISR accumulated a deterministic signature.
    let sig = misr.signature();
    let mut misr2 = Misr::new(16);
    for (c, po) in traj.outputs.iter().enumerate() {
        if c % 2 == 0 {
            misr2.absorb(po);
        }
    }
    assert_eq!(sig, misr2.signature());
}

#[test]
fn faulty_circuit_changes_the_misr_signature() {
    // End-to-end BIST story: a detected fault must corrupt the signature
    // accumulated from test responses.
    let net = s27();
    let faults = fbt::fault::all_transition_faults(&net);
    let cfg = FunctionalBistConfig::smoke();
    let out = generate_unconstrained(&net, &cfg);
    let detected_idx = out
        .detected
        .iter()
        .position(|&d| d)
        .expect("something is detected");
    let fault = out.faults[detected_idx];
    let _ = faults;

    // Find a specific detecting test by replaying.
    let spec = TpgSpec {
        lfsr_width: cfg.lfsr_width,
        m: cfg.m,
        cube: fbt::bist::cube::input_cube(&net),
    };
    let mut fsim = PackedParallelSim::new(&net);
    let mut found = None;
    for &seed in &out.seeds {
        let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
        let traj = simulate_sequence(&net, &Bits::zeros(3), &pis);
        let tests = fbt::core::extract::functional_tests(&pis, &traj.states);
        if let Some(t) = tests.iter().find(|t| fsim.detects(t, &fault)) {
            found = Some(t.clone());
            break;
        }
    }
    let test = found.expect("a detecting test exists among the kept seeds");
    // Good vs faulty response differ at the PO or in the captured state, so
    // a MISR absorbing both always diverges.
    let (good_po, good_s3) = test.response(&net);
    // Build the faulty response by forcing the fault's launch-frame effect:
    // simulate the faulty second frame via the fault simulator's semantics.
    // (The difference is already proven by `detects`; here we just check the
    // signature machinery is sensitive to any difference.)
    let mut m_good = Misr::new(16);
    m_good.absorb(&good_po);
    m_good.absorb(&good_s3);
    let mut m_bad = Misr::new(16);
    let mut flipped = good_po.clone();
    flipped.set(0, !flipped.get(0));
    m_bad.absorb(&flipped);
    m_bad.absorb(&good_s3);
    assert_ne!(m_good.signature(), m_bad.signature());
}

#[test]
fn hold_controller_masks_apply_in_sequence() {
    let ctl_sets = vec![HoldSet::new(vec![0, 2]), HoldSet::new(vec![1])];
    let mut ctl = fbt::bist::holding::HoldController::new(3, ctl_sets);
    let net = s27();
    let mut sim = SeqSim::new(&net, &Bits::from_str01("111"));
    // Hold set 0 ({0, 2}) on a hold-enabled cycle.
    let mask = ctl.mask();
    let r = sim.step_holding(&Bits::from_str01("0000"), Some(&mask));
    assert!(r.next_state.get(0));
    assert!(r.next_state.get(2));
    assert!(ctl.advance());
    assert_eq!(ctl.mask().to_string(), "010");
}
