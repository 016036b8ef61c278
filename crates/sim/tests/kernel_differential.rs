//! Differential suite pinning the compiled kernels to the gate-walking
//! interpreters, bit for bit, on the ISCAS catalog circuits (s35932 and
//! s38584 also at full size) and on random netlists: packed two-valued
//! values, and the per-lane switching activity of the multi-lane sequential
//! simulator against the scalar oracle.

mod common;

use common::ScalarSeqSim;
use fbt_netlist::rng::Rng;
use fbt_netlist::synth::{self, CircuitSpec};
use fbt_netlist::{s27, Netlist};
use fbt_sim::kernel::Kernel;
use fbt_sim::lanes::{extract_lane, LaneSeqSim};
use fbt_sim::{comb, Bits};

/// All small ISCAS catalog circuits plus s27 — every circuit the CI kernel
/// step exercises end to end.
fn iscas_nets() -> Vec<Netlist> {
    let mut nets = vec![s27()];
    nets.extend(synth::iscas_small().iter().map(synth::generate));
    nets
}

/// The Chapter-4 benchmark circuits at full size (the benchmark runs them
/// scaled down).
fn full_size_nets() -> Vec<Netlist> {
    ["s35932", "s38584"]
        .iter()
        .map(|name| synth::generate(&synth::find(name).expect("catalog circuit")))
        .collect()
}

fn random_nets(n: usize, seed: u64) -> Vec<Netlist> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let pi = 2 + rng.below(8);
            let po = 1 + rng.below(5);
            let ff = 1 + rng.below(12);
            let gates = 25 + rng.below(250);
            let mut spec = CircuitSpec::new("kdiff", pi, po, ff, gates);
            spec.seed = rng.next_u64();
            synth::generate(&spec)
        })
        .collect()
}

fn random_bits(n: usize, rng: &mut Rng) -> Bits {
    (0..n).map(|_| rng.bit()).collect()
}

#[test]
fn compiled_values_match_interpreter_on_iscas_and_random_nets() {
    let mut rng = Rng::new(0xD1FF);
    let nets = iscas_nets().into_iter().chain(full_size_nets());
    for net in nets.chain(random_nets(5, 0xD1FF)) {
        let kernel = Kernel::for_netlist(&net);
        for round in 0..4 {
            let mut reference = vec![0u64; net.num_nodes()];
            for &id in net.inputs().iter().chain(net.dffs()) {
                reference[id.index()] = rng.next_u64();
            }
            let mut compiled = reference.clone();
            comb::eval_packed(&net, &mut reference);
            kernel.eval2(&mut compiled);
            assert_eq!(compiled, reference, "{} round {round}", net.name());
        }
    }
}

#[test]
fn lane_sim_on_kernel_matches_scalar_seqsim_values_and_swa() {
    let mut rng = Rng::new(0x5E);
    let nets = iscas_nets().into_iter().take(6).chain(full_size_nets());
    for net in nets.chain(random_nets(2, 9)) {
        let lanes = 64.min(5 + rng.below(60));
        let cycles = 10;
        let start = random_bits(net.num_dffs(), &mut rng);
        let pis: Vec<Vec<Bits>> = (0..lanes)
            .map(|_| {
                (0..cycles)
                    .map(|_| random_bits(net.num_inputs(), &mut rng))
                    .collect()
            })
            .collect();

        let mut packed = LaneSeqSim::new(&net, lanes);
        packed.broadcast_state(&start);
        let mut scalars: Vec<ScalarSeqSim<'_>> = (0..lanes)
            .map(|_| ScalarSeqSim::new(&net, &start))
            .collect();
        #[allow(clippy::needless_range_loop)] // `c` indexes lane-major `pis`
        for c in 0..cycles {
            packed.step_with(|l| &pis[l][c], None);
            let swa = packed.swa();
            for (l, scalar) in scalars.iter_mut().enumerate() {
                let r = scalar.step_holding(&pis[l][c], None);
                assert_eq!(
                    packed.lane_state(l),
                    r.next_state,
                    "{} cycle {c} lane {l}",
                    net.name()
                );
                assert_eq!(
                    extract_lane(packed.output_words(), l),
                    r.outputs,
                    "{} outputs cycle {c} lane {l}",
                    net.name()
                );
                match (swa, r.switching_activity) {
                    (Some(s), Some(expect)) => {
                        assert_eq!(s[l], expect, "{} swa cycle {c} lane {l}", net.name())
                    }
                    (None, None) => {}
                    (a, b) => panic!("swa definedness mismatch: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
