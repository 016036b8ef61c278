//! Differential suite for the deterministic speculative-batch seed search.
//!
//! The reference implementations below are verbatim ports of the serial
//! Chapter-4 loops as they existed before speculation was introduced (one
//! seed drawn and evaluated per iteration, no batching). The suite asserts
//! that `generate_unconstrained` / `generate_constrained` /
//! `generate_constrained_with_library` produce byte-identical outcomes for
//! the same `master_seed` across
//! `threads ∈ {1, 2, 8}` and `batch ∈ {1, 4, 16}`, on s27 plus a
//! synthesized circuit — i.e. the speculative search is bit-identical to
//! the serial loop and independent of thread count.
//!
//! The signal-transition-pattern reference judges prefixes with the
//! pre-refactor interpreter probe kept here as the oracle, so the engine's
//! node-word hook is never checked against itself.

use fbt_bist::{cube, Tpg, TpgSpec};
use fbt_core::driver::{functional_sequences, DrivingBlock};
use fbt_core::extract::functional_tests;
use fbt_core::stp::StpLibrary;
use fbt_core::{
    generate_constrained, generate_constrained_with_library, generate_unconstrained,
    AdmissibilityPolicy, FunctionalBistConfig, SearchOptions, SeedSource, TpgSeedSource,
};
use fbt_fault::{
    all_transition_faults, collapse, FaultSimEngine, FaultSimOptions, PackedParallelSim, TestSet,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::{s27, synth, Netlist};
use fbt_sim::activity::peak_activity;
use fbt_sim::comb;
use fbt_sim::lanes::LaneSeqSim;
use fbt_sim::seq::simulate_sequence;
use fbt_sim::Bits;

const BATCHES: [usize; 3] = [1, 4, 16];
const THREADS: [usize; 3] = [1, 2, 8];

fn circuits() -> Vec<Netlist> {
    vec![
        s27(),
        synth::generate(&synth::find("s386").unwrap().scaled(2)),
    ]
}

/// The pre-speculation serial unconstrained loop (paper §4.3 / \[73\]).
fn reference_unconstrained(
    net: &Netlist,
    cfg: &FunctionalBistConfig,
) -> (Vec<u64>, Vec<bool>, usize, f64) {
    let spec = TpgSpec {
        lfsr_width: cfg.lfsr_width,
        m: cfg.m,
        cube: cube::input_cube(net),
    };
    let faults = collapse(net, &all_transition_faults(net));
    let mut detected = vec![false; faults.len()];
    let mut fsim = PackedParallelSim::new(net);
    let mut rng = Rng::new(cfg.master_seed);
    let zero = Bits::zeros(net.num_dffs());

    let mut kept: Vec<u64> = Vec::new();
    let mut useless = 0usize;
    let mut tried = 0usize;
    while useless < cfg.useless_seed_limit && tried < cfg.max_seeds {
        tried += 1;
        let seed = rng.next_u64();
        let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
        let traj = simulate_sequence(net, &zero, &pis);
        let tests = functional_tests(&pis, &traj.states);
        let newly = fsim
            .simulate(
                TestSet::Broadside(&tests),
                &faults,
                &mut detected,
                &FaultSimOptions::new(),
            )
            .newly_detected;
        if newly > 0 {
            kept.push(seed);
            useless = 0;
        } else {
            useless += 1;
        }
    }

    let mut final_detected = vec![false; faults.len()];
    let mut final_seeds: Vec<u64> = Vec::new();
    let mut tests_applied = 0usize;
    let mut peak_swa = 0.0f64;
    for &seed in kept.iter().rev() {
        let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
        let traj = simulate_sequence(net, &zero, &pis);
        let tests = functional_tests(&pis, &traj.states);
        let newly = fsim
            .simulate(
                TestSet::Broadside(&tests),
                &faults,
                &mut final_detected,
                &FaultSimOptions::new(),
            )
            .newly_detected;
        if newly > 0 {
            final_seeds.push(seed);
            tests_applied += tests.len();
            peak_swa = peak_swa.max(traj.peak_swa());
        }
    }
    final_seeds.reverse();
    (final_seeds, final_detected, tests_applied, peak_swa)
}

/// The serial switching-activity admissibility rule (paper §4.4).
fn admissible_prefix(net: &Netlist, bound: f64, start: &Bits, pis: &[Bits]) -> usize {
    let traj = simulate_sequence(net, start, pis);
    match traj
        .swa
        .iter()
        .position(|s| s.is_some_and(|v| v > bound + 1e-12))
    {
        Some(v) => (v.saturating_sub(1)) & !1usize,
        None => pis.len() & !1usize,
    }
}

/// Compute the full node-value vector for one cycle (pre-refactor
/// `stp::cycle_values`, verbatim).
fn cycle_values(net: &Netlist, state: &Bits, pi: &Bits, vals: &mut [bool]) {
    for (i, &id) in net.inputs().iter().enumerate() {
        vals[id.index()] = pi.get(i);
    }
    for (i, &id) in net.dffs().iter().enumerate() {
        vals[id.index()] = state.get(i);
    }
    comb::eval_scalar(net, vals);
}

/// The pattern of signal-transitions between two consecutive value vectors
/// (pre-refactor `stp::pattern_of`, verbatim).
fn pattern_of(prev: &[bool], cur: &[bool]) -> Vec<(u32, bool)> {
    prev.iter()
        .zip(cur)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, (_, &b))| (i as u32, b))
        .collect()
}

fn next_state(net: &Netlist, vals: &[bool]) -> Bits {
    net.dffs()
        .iter()
        .map(|&d| vals[net.node(d).fanins()[0].index()])
        .collect()
}

/// The serial signal-transition-pattern rule (§5.1): the pre-refactor
/// `StpLibrary::admissible_prefix`, re-simulating on the interpreter.
fn stp_admissible_prefix(lib: &StpLibrary, net: &Netlist, start: &Bits, pis: &[Bits]) -> usize {
    let mut vals = vec![false; net.num_nodes()];
    let mut prev = vec![false; net.num_nodes()];
    let mut state = start.clone();
    for (c, pi) in pis.iter().enumerate() {
        cycle_values(net, &state, pi, &mut vals);
        if c > 0 {
            let pat = pattern_of(&prev, &vals);
            if !lib.allows(&pat) {
                // Violation at cycle c: usable prefix is c-1 cycles,
                // rounded down to even (same geometry as the SWA rule).
                return (c - 1) & !1usize;
            }
        }
        state = next_state(net, &vals);
        std::mem::swap(&mut prev, &mut vals);
    }
    pis.len() & !1usize
}

/// One reference segment: (seed, len). A sequence is a Vec of segments.
type RefSeqs = Vec<(Bits, Vec<(u64, usize)>)>;

/// The pre-speculation serial constrained loop (Fig. 4.9) under the
/// admissibility rule `prefix(start, pis)`, every sequence starting from
/// the all-0 reset state.
fn reference_constrained(
    net: &Netlist,
    prefix: impl Fn(&Bits, &[Bits]) -> usize,
    cfg: &FunctionalBistConfig,
) -> (RefSeqs, Vec<bool>, usize, f64) {
    let spec = TpgSpec {
        lfsr_width: cfg.lfsr_width,
        m: cfg.m,
        cube: cube::input_cube(net),
    };
    let faults = collapse(net, &all_transition_faults(net));
    let mut detected = vec![false; faults.len()];
    let mut fsim = PackedParallelSim::new(net);
    let mut rng = Rng::new(cfg.master_seed);
    let zero = Bits::zeros(net.num_dffs());

    let mut sequences: RefSeqs = Vec::new();
    let mut tests_applied = 0usize;
    let mut peak_swa = 0.0f64;
    let mut attempt_failures = 0usize;
    let mut seeds_tried = 0usize;

    while attempt_failures < cfg.attempt_failure_limit && seeds_tried < cfg.max_seeds {
        let mut cur_state = zero.clone();
        let mut segments: Vec<(u64, usize)> = Vec::new();
        let mut seed_failures = 0usize;
        while seed_failures < cfg.segment_failure_limit && seeds_tried < cfg.max_seeds {
            seeds_tried += 1;
            let seed = rng.next_u64();
            let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
            let len = prefix(&cur_state, &pis);
            if len < 2 {
                seed_failures += 1;
                continue;
            }
            let prefix = &pis[..len];
            let traj = simulate_sequence(net, &cur_state, prefix);
            let tests = functional_tests(prefix, &traj.states);
            let newly = fsim
                .simulate(
                    TestSet::Broadside(&tests),
                    &faults,
                    &mut detected,
                    &FaultSimOptions::new(),
                )
                .newly_detected;
            if newly > 0 {
                tests_applied += tests.len();
                peak_swa = peak_swa.max(traj.peak_swa());
                cur_state = traj.states[len].clone();
                segments.push((seed, len));
                seed_failures = 0;
            } else {
                seed_failures += 1;
            }
        }
        if segments.is_empty() {
            attempt_failures += 1;
        } else {
            attempt_failures = 0;
            sequences.push((zero.clone(), segments));
        }
    }
    (sequences, detected, tests_applied, peak_swa)
}

fn cfg_with(batch: usize, threads: usize) -> FunctionalBistConfig {
    FunctionalBistConfig {
        search: SearchOptions { batch, threads },
        ..FunctionalBistConfig::smoke()
    }
}

/// The sequences of a constrained outcome in reference form.
fn ref_seqs(out: &fbt_core::ConstrainedOutcome) -> RefSeqs {
    out.sequences
        .iter()
        .map(|s| {
            (
                s.initial_state.clone(),
                s.segments.iter().map(|g| (g.seed, g.len)).collect(),
            )
        })
        .collect()
}

#[test]
fn unconstrained_is_bit_identical_to_the_serial_reference() {
    for net in circuits() {
        let (seeds, detected, tests_applied, peak_swa) =
            reference_unconstrained(&net, &FunctionalBistConfig::smoke());
        for batch in BATCHES {
            for threads in THREADS {
                let out = generate_unconstrained(&net, &cfg_with(batch, threads));
                let label = format!("{} batch={batch} threads={threads}", net.name());
                assert_eq!(out.seeds, seeds, "{label}");
                assert_eq!(out.detected, detected, "{label}");
                assert_eq!(out.tests_applied, tests_applied, "{label}");
                assert_eq!(out.peak_swa, peak_swa, "{label}");
            }
        }
    }
}

#[test]
fn constrained_is_bit_identical_to_the_serial_reference() {
    for net in circuits() {
        // A bound tight enough to force truncation and rejections.
        let bound = 0.45;
        let (seqs, detected, tests_applied, peak_swa) = reference_constrained(
            &net,
            |start, pis| admissible_prefix(&net, bound, start, pis),
            &FunctionalBistConfig::smoke(),
        );
        for batch in BATCHES {
            for threads in THREADS {
                let out = generate_constrained(&net, bound, &cfg_with(batch, threads));
                let label = format!("{} batch={batch} threads={threads}", net.name());
                assert_eq!(ref_seqs(&out), seqs, "{label}");
                assert_eq!(out.detected, detected, "{label}");
                assert_eq!(out.tests_applied, tests_applied, "{label}");
                assert_eq!(out.peak_swa, peak_swa, "{label}");
            }
        }
    }
}

#[test]
fn speculative_outcomes_are_independent_of_thread_count() {
    // Fixing the batch, every thread count must give the same counters too
    // (wasted_evals depends only on the batch size and the commit pattern).
    for net in circuits() {
        for batch in BATCHES {
            let reference = generate_unconstrained(&net, &cfg_with(batch, 1));
            for threads in [2, 8] {
                let out = generate_unconstrained(&net, &cfg_with(batch, threads));
                assert_eq!(out.seeds, reference.seeds);
                assert_eq!(out.detected, reference.detected);
                assert_eq!(out.stats.evals, reference.stats.evals);
                assert_eq!(out.stats.wasted_evals, reference.stats.wasted_evals);
                assert_eq!(out.stats.seeds_tried, reference.stats.seeds_tried);
                assert_eq!(out.stats.fsim_calls, reference.stats.fsim_calls);
                assert_eq!(out.stats.candidate_groups, reference.stats.candidate_groups);
            }
        }
    }
}

/// A functional signal-transition library sampled more sparsely than the
/// generation budget (as the `ablation_metric` bench builds it), so many
/// candidates leave it and get truncated; plus the `SWAfunc` bound the
/// outcome records.
fn sparse_library(net: &Netlist) -> (StpLibrary, f64) {
    let cfg = FunctionalBistConfig::smoke();
    let lib_cfg = FunctionalBistConfig {
        func_sequences: 2,
        func_len: cfg.func_len / 4,
        ..cfg
    };
    let seqs = functional_sequences(net, &DrivingBlock::Buffers, &lib_cfg);
    let zero = Bits::zeros(net.num_dffs());
    (
        StpLibrary::collect(net, &zero, &seqs),
        peak_activity(net, &zero, &seqs),
    )
}

#[test]
fn stp_constrained_is_bit_identical_to_the_serial_interpreter_reference() {
    for net in circuits() {
        let (lib, bound) = sparse_library(&net);
        let cfg = FunctionalBistConfig::smoke();
        let (seqs, detected, tests_applied, peak_swa) = reference_constrained(
            &net,
            |start, pis| stp_admissible_prefix(&lib, &net, start, pis),
            &cfg,
        );
        assert!(
            seqs.iter()
                .flat_map(|(_, segs)| segs)
                .any(|&(_, len)| len < cfg.seq_len),
            "{}: the sparse library must truncate some segment",
            net.name()
        );
        for batch in BATCHES {
            for threads in THREADS {
                let out =
                    generate_constrained_with_library(&net, bound, &lib, &cfg_with(batch, threads));
                let label = format!("{} batch={batch} threads={threads}", net.name());
                assert_eq!(ref_seqs(&out), seqs, "{label}");
                assert_eq!(out.detected, detected, "{label}");
                assert_eq!(out.tests_applied, tests_applied, "{label}");
                assert_eq!(out.peak_swa, peak_swa, "{label}");
            }
        }
    }
}

#[test]
fn stp_node_word_hook_matches_the_interpreter_probe_on_every_lane() {
    // Clock TPG candidates as 1, 8 and 64 lanes, drop each lane at the
    // first cycle the hook rejects (as the engine does), and compare every
    // lane's prefix with the interpreter probe.
    let seq_len = 40;
    for net in circuits() {
        let (lib, _) = sparse_library(&net);
        let source = TpgSeedSource::for_circuit(&net, &FunctionalBistConfig::smoke());
        let mut rng = Rng::new(0x5EED);
        let mut start = Bits::zeros(net.num_dffs());
        for lanes in [1usize, 8, 64] {
            let pis: Vec<Vec<Bits>> = (0..lanes)
                .map(|_| source.expand(rng.next_u64(), seq_len))
                .collect();
            let mut sim = LaneSeqSim::new(&net, lanes);
            sim.broadcast_state(&start);
            let mut live = u64::MAX >> (64 - lanes);
            let mut first_rejected: Vec<Option<usize>> = vec![None; lanes];
            // `c` indexes the inner (cycle) axis of `pis` inside the closure.
            #[allow(clippy::needless_range_loop)]
            for c in 0..seq_len {
                sim.step_with(|l| &pis[l][c], None);
                let rejected = lib.inadmissible_lanes(&sim, live);
                assert_eq!(rejected & !live, 0, "only live lanes are judged");
                for (l, first) in first_rejected.iter_mut().enumerate() {
                    if (rejected >> l) & 1 == 1 {
                        *first = Some(c);
                    }
                }
                live &= !rejected;
            }
            for (l, lane_pis) in pis.iter().enumerate() {
                let hook = match first_rejected[l] {
                    Some(v) => (v - 1) & !1usize,
                    None => seq_len & !1usize,
                };
                assert_eq!(
                    hook,
                    stp_admissible_prefix(&lib, &net, &start, lane_pis),
                    "{} lanes={lanes} lane={l}",
                    net.name()
                );
            }
            if lanes > 1 {
                let mut cycles: Vec<usize> = first_rejected.iter().flatten().copied().collect();
                cycles.sort_unstable();
                cycles.dedup();
                assert!(
                    cycles.len() > 1,
                    "{} lanes={lanes}: lanes should first violate on different cycles",
                    net.name()
                );
            }
            // Start the next width from a reachable state further along.
            start = simulate_sequence(&net, &start, &pis[0][..2]).states[2].clone();
        }
    }
}
