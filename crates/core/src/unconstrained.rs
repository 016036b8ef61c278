//! Built-in generation of functional broadside tests with unconstrained
//! primary inputs — the method of \[73\] reviewed in paper §4.3, which is the
//! baseline the constrained method extends.
//!
//! The circuit is initialized into a reachable state (the all-0 state, per
//! §4.6); for each candidate LFSR seed the TPG produces a primary-input
//! sequence of fixed length `L`; the resulting functional broadside tests are
//! fault-simulated, and the seed is kept only if its tests detect new faults.
//! The procedure stops after `U` consecutive useless seeds, then a
//! forward-looking fault-simulation pass prunes seeds made redundant by later
//! ones.
//!
//! This is the [`GenerationEngine`] with the [`Unbounded`] admissibility
//! policy (no truncation, no probe simulation) in single-sequence mode:
//! every candidate runs from the reset state (`chain_state` off), the
//! useless-seed limit `U` plays the role of the paper's `R`, and accepted
//! segments cache their test vectors so the compaction pass never re-expands
//! or re-simulates.

use std::time::Instant;

use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sim::Bits;

use crate::engine::{self, ConstructOptions, GenerationEngine, StateOverlay};
use crate::outcome::{deref_summary, MultiSegmentSequence, OutcomeSummary, Segment};
use crate::policy::Unbounded;
use crate::progress::Progress;
use crate::FunctionalBistConfig;

/// Result of a built-in generation run.
#[derive(Debug, Clone)]
pub struct GenerationOutcome {
    /// Selected LFSR seeds, in application order.
    pub seeds: Vec<u64>,
    /// The shared outcome facts (fault list, detection flags, test count,
    /// peak activity, stats). Field access forwards via `Deref`.
    pub summary: OutcomeSummary,
}

deref_summary!(GenerationOutcome);

impl GenerationOutcome {
    /// The selected seeds as single-segment sequences from the reset state
    /// (the unconstrained method's degenerate sequence shape).
    pub fn as_sequences(
        &self,
        net: &Netlist,
        cfg: &FunctionalBistConfig,
    ) -> Vec<MultiSegmentSequence> {
        let zero = Bits::zeros(net.num_dffs());
        self.seeds
            .iter()
            .map(|&seed| MultiSegmentSequence {
                initial_state: zero.clone(),
                segments: vec![Segment {
                    seed,
                    len: cfg.seq_len,
                }],
            })
            .collect()
    }

    /// Replay the selected seeds and return the exact tests they apply
    /// (see [`engine::replay_tests`]).
    pub fn replay_tests(
        &self,
        net: &Netlist,
        cfg: &FunctionalBistConfig,
    ) -> Vec<fbt_fault::BroadsideTest> {
        engine::replay_tests(
            net,
            cfg,
            &StateOverlay::Identity,
            &self.as_sequences(net, cfg),
        )
        .into_broadside()
    }

    /// The deterministic semantic summary as a JSON object — identical for
    /// every speculation setting (batch and thread count). This exact byte
    /// format is pinned by the committed `golden_ch4` fixtures; `fbt-serve`
    /// result artifacts embed it verbatim.
    pub fn summary_json(&self) -> String {
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        format!(
            "{{\"coverage\":{},\"num_detected\":{},\"num_faults\":{},\"seeds\":[{}],\
             \"tests_applied\":{},\"peak_swa\":{}}}",
            self.fault_coverage(),
            self.num_detected(),
            self.faults.len(),
            seeds.join(","),
            self.tests_applied,
            self.peak_swa,
        )
    }
}

/// Run the unconstrained method of \[73\].
///
/// # Example
///
/// ```
/// use fbt_core::{generate_unconstrained, FunctionalBistConfig};
///
/// let net = fbt_netlist::s27();
/// let out = generate_unconstrained(&net, &FunctionalBistConfig::smoke());
/// assert!(!out.seeds.is_empty());
/// assert!(out.fault_coverage() > 0.0);
/// ```
///
/// # Panics
///
/// Panics on invalid configurations (see
/// [`FunctionalBistConfig::validate`]).
pub fn generate_unconstrained(net: &Netlist, cfg: &FunctionalBistConfig) -> GenerationOutcome {
    generate_unconstrained_watched(net, cfg, &Progress::default())
}

/// Like [`generate_unconstrained`], with a [`Progress`] handle: the run
/// publishes live counters into it and honors its cancellation flag at
/// speculative-round boundaries. A cancelled run still compacts and returns
/// the seeds committed so far — a valid partial outcome, bit-identical to
/// the uncancelled run's prefix.
///
/// # Panics
///
/// Panics on invalid configurations (see
/// [`FunctionalBistConfig::validate`]).
pub fn generate_unconstrained_watched(
    net: &Netlist,
    cfg: &FunctionalBistConfig,
    progress: &Progress,
) -> GenerationOutcome {
    let t0 = Instant::now();
    let mut engine = GenerationEngine::new(net, cfg);
    engine.set_progress(progress.clone());
    let mut rng = Rng::new(cfg.master_seed);
    let zero = Bits::zeros(net.num_dffs());
    let mut detected = vec![false; engine.num_faults()];
    let run = engine.construct(
        &Unbounded,
        &StateOverlay::Identity,
        &zero,
        &mut rng,
        &mut detected,
        &ConstructOptions {
            r_limit: cfg.useless_seed_limit,
            q_limit: 1,
            single_sequence: true,
            chain_state: false,
            keep_tests: true,
        },
    );
    let mut stats = run.stats;
    stats.select_wall = t0.elapsed();

    // Forward-looking compaction over the cached test vectors; coverage is
    // preserved by construction.
    let compaction = engine.compact(&run.kept, &mut stats);
    let seeds: Vec<u64> = compaction
        .kept_indices
        .iter()
        .map(|&i| run.kept[i].seed)
        .collect();
    stats.total_wall = t0.elapsed();
    progress.finish(progress.is_cancelled());

    GenerationOutcome {
        seeds,
        summary: OutcomeSummary {
            faults: engine.into_faults(),
            detected: compaction.detected,
            tests_applied: compaction.tests_applied,
            peak_swa: compaction.peak_swa,
            stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::functional_tests;
    use crate::SearchOptions;
    use fbt_bist::{cube, Tpg, TpgSpec};
    use fbt_fault::{FaultSimEngine, FaultSimOptions, PackedParallelSim, TestSet};
    use fbt_netlist::{s27, synth};
    use fbt_sim::seq::simulate_sequence;

    #[test]
    fn s27_reaches_reasonable_coverage() {
        let net = s27();
        let out = generate_unconstrained(&net, &FunctionalBistConfig::smoke());
        assert!(
            out.fault_coverage() > 40.0,
            "coverage {}",
            out.fault_coverage()
        );
        assert!(!out.seeds.is_empty());
        assert!(out.tests_applied > 0);
        assert!(out.peak_swa > 0.0 && out.peak_swa <= 1.0);
    }

    #[test]
    fn deterministic_given_config() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let a = generate_unconstrained(&net, &cfg);
        let b = generate_unconstrained(&net, &cfg);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn compaction_preserves_coverage() {
        // Re-simulating exactly the final seeds must reproduce the reported
        // detection flags.
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let out = generate_unconstrained(&net, &cfg);
        let spec = TpgSpec {
            lfsr_width: cfg.lfsr_width,
            m: cfg.m,
            cube: cube::input_cube(&net),
        };
        let mut detected = vec![false; out.faults.len()];
        let mut fsim = PackedParallelSim::new(&net);
        let zero = Bits::zeros(net.num_dffs());
        for &seed in &out.seeds {
            let pis = Tpg::new(spec.clone(), seed).sequence(cfg.seq_len);
            let traj = simulate_sequence(&net, &zero, &pis);
            let tests = functional_tests(&pis, &traj.states);
            fsim.simulate(
                TestSet::Broadside(&tests),
                &out.faults,
                &mut detected,
                &FaultSimOptions::new(),
            );
        }
        assert_eq!(detected, out.detected);
    }

    #[test]
    fn generic_replay_reproduces_detections() {
        // The engine-level replay (seeds as degenerate single-segment
        // sequences) must agree with the outcome's detection flags.
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let out = generate_unconstrained(&net, &cfg);
        let tests = out.replay_tests(&net, &cfg);
        assert_eq!(tests.len(), out.tests_applied);
        let mut detected = vec![false; out.faults.len()];
        let mut fsim = PackedParallelSim::new(&net);
        fsim.simulate(
            TestSet::Broadside(&tests),
            &out.faults,
            &mut detected,
            &FaultSimOptions::new(),
        );
        assert_eq!(detected, out.detected);
    }

    #[test]
    fn compaction_runs_on_cached_vectors() {
        // The selection pass is the only phase that logic-simulates: every
        // evaluation costs exactly L cycles, and the compaction pass adds
        // none (it reuses the cached test vectors).
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let out = generate_unconstrained(&net, &cfg);
        assert_eq!(out.stats.sim_cycles, out.stats.evals * cfg.seq_len);
        assert!(out.stats.seeds_tried <= out.stats.evals);
        assert_eq!(
            out.stats.wasted_evals,
            out.stats.evals - out.stats.seeds_tried
        );
    }

    #[test]
    fn speculation_matches_serial_exactly() {
        let net = s27();
        let serial_cfg = FunctionalBistConfig {
            search: SearchOptions::serial(),
            ..FunctionalBistConfig::smoke()
        };
        let reference = generate_unconstrained(&net, &serial_cfg);
        for batch in [2, 4, 16] {
            let cfg = FunctionalBistConfig {
                search: SearchOptions { batch, threads: 2 },
                ..FunctionalBistConfig::smoke()
            };
            let out = generate_unconstrained(&net, &cfg);
            assert_eq!(out.seeds, reference.seeds, "batch {batch}");
            assert_eq!(out.detected, reference.detected, "batch {batch}");
            assert_eq!(out.tests_applied, reference.tests_applied);
            assert_eq!(out.peak_swa, reference.peak_swa);
        }
    }

    /// An s27-like circuit with seeded dead logic: a structurally constant
    /// gate and a dangling chain, both on top of healthy sequential logic.
    fn seeded_dead_logic() -> Netlist {
        use fbt_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new("dead");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate(GateKind::Not, "na", &["a"]).unwrap();
        b.gate(GateKind::And, "k0", &["a", "na"]).unwrap(); // constant 0
        b.gate(GateKind::Or, "y", &["k0", "c"]).unwrap();
        b.gate(GateKind::Not, "dead", &["c"]).unwrap(); // never observed
        b.gate(GateKind::Xor, "nxt", &["y", "q"]).unwrap();
        b.dff("q", "nxt").unwrap();
        b.output("y").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn lint_preflight_skips_faults_and_preserves_the_outcome() {
        let net = seeded_dead_logic();
        let on = FunctionalBistConfig::smoke();
        let off = FunctionalBistConfig {
            lint_preflight: false,
            ..on.clone()
        };
        let a = generate_unconstrained(&net, &on);
        let b = generate_unconstrained(&net, &off);
        // Both transition faults on `k0` and on `dead` (at least) are
        // untestable by construction and never reach the simulator.
        assert!(
            a.stats.faults_skipped_lint >= 2,
            "skipped {}",
            a.stats.faults_skipped_lint
        );
        assert_eq!(b.stats.faults_skipped_lint, 0);
        // The skip is pure work avoidance: full-length flags, seeds and
        // counters all agree.
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.tests_applied, b.tests_applied);
        assert_eq!(a.stats.seeds_tried, b.stats.seeds_tried);
        // No skipped fault is ever reported detected.
        let ev = fbt_lint::PreflightEvidence::analyze(&net);
        for (f, &d) in a.faults.iter().zip(&a.detected) {
            if ev.transition_untestable(f.line) {
                assert!(!d);
            }
        }
    }

    #[test]
    fn watched_run_publishes_counters_and_matches_unwatched() {
        use crate::progress::ProgressPhase;
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let plain = generate_unconstrained(&net, &cfg);
        let p = Progress::new();
        let watched = generate_unconstrained_watched(&net, &cfg, &p);
        // Observation-only: attaching a handle changes nothing.
        assert_eq!(watched.seeds, plain.seeds);
        assert_eq!(watched.detected, plain.detected);
        let snap = p.snapshot();
        assert_eq!(snap.phase, ProgressPhase::Finished);
        assert_eq!(snap.seeds_tried, watched.stats.seeds_tried);
        assert_eq!(snap.seeds_kept, watched.stats.seeds_kept);
        assert_eq!(snap.evals, watched.stats.evals);
    }

    #[test]
    fn pre_cancelled_run_returns_an_empty_valid_outcome() {
        use crate::progress::ProgressPhase;
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let p = Progress::new();
        p.cancel();
        let out = generate_unconstrained_watched(&net, &cfg, &p);
        assert_eq!(p.snapshot().phase, ProgressPhase::Cancelled);
        assert!(out.seeds.is_empty());
        assert_eq!(out.stats.seeds_tried, 0);
        assert!(out.detected.iter().all(|&d| !d));
        // The fault list is still the circuit's collapsed list.
        assert!(!out.faults.is_empty());
    }

    #[test]
    fn larger_budget_does_not_reduce_coverage() {
        let net = synth::generate(&synth::find("s298").unwrap().scaled(2));
        let small = FunctionalBistConfig::smoke();
        let big = FunctionalBistConfig {
            seq_len: 200,
            useless_seed_limit: 6,
            ..small.clone()
        };
        let c_small = generate_unconstrained(&net, &small).fault_coverage();
        let c_big = generate_unconstrained(&net, &big).fault_coverage();
        assert!(c_big + 1e-9 >= c_small, "{c_big} vs {c_small}");
    }
}
