//! Built-in generation of functional broadside tests **considering primary
//! input constraints** — the paper's contribution (§4.4, Fig. 4.9).
//!
//! Arbitrary on-chip sequences can drive the embedded circuit through
//! state-transitions whose switching activity exceeds anything functional
//! operation can produce, causing overtesting. The constrained method builds
//! *multi-segment* primary-input sequences: each segment comes from a
//! different LFSR seed, is truncated just before the first clock cycle whose
//! switching activity would exceed `SWAfunc`, and is kept only if its tests
//! detect new faults. Between segments the circuit's state is held (its clock
//! is gated) while the new seed is loaded, so the next segment continues from
//! the final state of the previous one and the whole trajectory remains
//! reachable.
//!
//! This is the [`GenerationEngine`] with a bounded
//! [`crate::policy::AdmissibilityPolicy`] ([`SwaRule`] here, or the §5.1
//! [`StpLibrary`]) in multi-sequence mode with state chaining.

use std::time::Instant;

use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sim::Bits;

use crate::engine::{self, ConstructOptions, GenerationEngine, StateOverlay};
use crate::outcome::{deref_summary, OutcomeSummary};
use crate::policy::{AdmissibilityPolicy, SwaRule};
use crate::progress::Progress;
use crate::stp::StpLibrary;
use crate::FunctionalBistConfig;

pub use crate::outcome::{MultiSegmentSequence, Segment};

/// Result of a constrained generation run.
#[derive(Debug, Clone)]
pub struct ConstrainedOutcome {
    /// The constructed multi-segment sequences.
    pub sequences: Vec<MultiSegmentSequence>,
    /// The switching-activity bound used (`SWAfunc`).
    pub swafunc: f64,
    /// The shared outcome facts (fault list, detection flags, test count,
    /// peak activity ≤ `swafunc` under the SWA metric, stats). Field access
    /// forwards via `Deref`.
    pub summary: OutcomeSummary,
}

deref_summary!(ConstrainedOutcome);

impl ConstrainedOutcome {
    /// `Nmulti`: number of multi-segment sequences.
    pub fn nmulti(&self) -> usize {
        self.sequences.len()
    }

    /// `Nsegmax`: most segments in any one sequence.
    pub fn nsegmax(&self) -> usize {
        self.sequences
            .iter()
            .map(MultiSegmentSequence::num_segments)
            .max()
            .unwrap_or(0)
    }

    /// `Lmax`: longest segment.
    pub fn lmax(&self) -> usize {
        self.sequences
            .iter()
            .flat_map(|s| s.segments.iter().map(|g| g.len))
            .max()
            .unwrap_or(0)
    }

    /// `Nseeds`: total number of selected seeds (= total segments).
    pub fn nseeds(&self) -> usize {
        self.sequences
            .iter()
            .map(MultiSegmentSequence::num_segments)
            .sum()
    }

    /// Segment lengths per sequence (for the controller's cycle budget).
    pub fn segment_lengths(&self) -> Vec<Vec<usize>> {
        self.sequences
            .iter()
            .map(|s| s.segments.iter().map(|g| g.len).collect())
            .collect()
    }

    /// The deterministic semantic summary as a JSON object — identical for
    /// every speculation setting (batch and thread count). This exact byte
    /// format is pinned by the committed `golden_ch4` fixtures; `fbt-serve`
    /// result artifacts embed it verbatim.
    pub fn summary_json(&self) -> String {
        let seqs: Vec<String> = self
            .sequences
            .iter()
            .map(|s| {
                let segs: Vec<String> = s
                    .segments
                    .iter()
                    .map(|g| format!("[{},{}]", g.seed, g.len))
                    .collect();
                format!("[{}]", segs.join(","))
            })
            .collect();
        format!(
            "{{\"coverage\":{},\"num_detected\":{},\"nmulti\":{},\"nsegmax\":{},\"lmax\":{},\
             \"nseeds\":{},\"sequences\":[{}],\"tests_applied\":{},\"peak_swa\":{}}}",
            self.fault_coverage(),
            self.num_detected(),
            self.nmulti(),
            self.nsegmax(),
            self.lmax(),
            self.nseeds(),
            seqs.join(","),
            self.tests_applied,
            self.peak_swa,
        )
    }
}

/// Run the constrained method with a precomputed `SWAfunc` bound, starting
/// every sequence from the all-0 reset state.
///
/// # Example
///
/// ```
/// use fbt_core::driver::DrivingBlock;
/// use fbt_core::{generate_constrained, swafunc, FunctionalBistConfig};
///
/// let net = fbt_netlist::s27();
/// let cfg = FunctionalBistConfig::smoke();
/// let bound = swafunc(&net, &DrivingBlock::Buffers, &cfg);
/// let out = generate_constrained(&net, bound, &cfg);
/// assert!(out.peak_swa <= bound);            // the §4.4 guarantee
/// assert!(out.fault_coverage() > 0.0);
/// ```
///
/// This entry point always uses the switching-activity rule; the §5.1
/// signal-transition-pattern rule runs through
/// [`generate_constrained_with_library`].
///
/// # Panics
///
/// Panics on invalid configurations.
pub fn generate_constrained(
    net: &Netlist,
    swafunc: f64,
    cfg: &FunctionalBistConfig,
) -> ConstrainedOutcome {
    generate_constrained_watched(net, swafunc, cfg, &Progress::default())
}

/// Like [`generate_constrained`], with a [`Progress`] handle: the run
/// publishes live counters into it and honors its cancellation flag at
/// speculative-round boundaries. A cancelled run returns the sequences
/// committed so far — a valid partial outcome, bit-identical to the
/// uncancelled run's prefix.
///
/// # Panics
///
/// Panics on invalid configurations.
pub fn generate_constrained_watched(
    net: &Netlist,
    swafunc: f64,
    cfg: &FunctionalBistConfig,
    progress: &Progress,
) -> ConstrainedOutcome {
    run(net, swafunc, cfg, &SwaRule { bound: swafunc }, progress)
}

/// Run the constrained method with the signal-transition-pattern rule of
/// §5.1 (\[90\]): a state-transition is admissible only if its pattern of
/// signal-transitions is a subset of one observed during functional
/// operation. `swafunc` is recorded in the outcome; the library alone
/// decides admissibility.
///
/// # Panics
///
/// Panics on invalid configurations.
pub fn generate_constrained_with_library(
    net: &Netlist,
    swafunc: f64,
    library: &StpLibrary,
    cfg: &FunctionalBistConfig,
) -> ConstrainedOutcome {
    run(net, swafunc, cfg, library, &Progress::default())
}

/// The constrained construction, every sequence starting from the all-0
/// reset state.
fn run<P: AdmissibilityPolicy + ?Sized>(
    net: &Netlist,
    swafunc: f64,
    cfg: &FunctionalBistConfig,
    policy: &P,
    progress: &Progress,
) -> ConstrainedOutcome {
    let t0 = Instant::now();
    let mut engine = GenerationEngine::new(net, cfg);
    engine.set_progress(progress.clone());
    let mut rng = Rng::new(cfg.master_seed);
    let mut detected = vec![false; engine.num_faults()];
    let run = engine.construct(
        policy,
        &StateOverlay::Identity,
        &Bits::zeros(net.num_dffs()),
        &mut rng,
        &mut detected,
        &ConstructOptions {
            r_limit: cfg.segment_failure_limit,
            q_limit: cfg.attempt_failure_limit,
            single_sequence: false,
            chain_state: true,
            keep_tests: false,
        },
    );
    let mut stats = run.stats;
    stats.select_wall = t0.elapsed();
    stats.total_wall = t0.elapsed();
    progress.finish(progress.is_cancelled());

    ConstrainedOutcome {
        sequences: run.sequences,
        swafunc,
        summary: OutcomeSummary {
            faults: engine.into_faults(),
            detected,
            tests_applied: run.tests_applied,
            peak_swa: run.peak_swa,
            stats,
        },
    }
}

/// Replay a constrained outcome's sequences and return the per-sequence
/// trajectories' tests — used by verification and by the state-holding stage
/// to know the remaining undetected faults exactly. A thin wrapper over the
/// mode-generic [`engine::replay_tests`].
pub fn replay_tests(
    net: &Netlist,
    outcome: &ConstrainedOutcome,
    cfg: &FunctionalBistConfig,
) -> Vec<fbt_fault::BroadsideTest> {
    engine::replay_tests(net, cfg, &StateOverlay::Identity, &outcome.sequences).into_broadside()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{swafunc as compute_swafunc, DrivingBlock};
    use crate::SearchOptions;
    use fbt_fault::{FaultSimEngine, FaultSimOptions, PackedParallelSim, TestSet};
    use fbt_netlist::{s27, synth};

    #[test]
    fn every_applied_cycle_respects_the_bound() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let bound = compute_swafunc(&net, &DrivingBlock::Buffers, &cfg) * 0.8;
        let out = generate_constrained(&net, bound, &cfg);
        assert!(
            out.peak_swa <= bound + 1e-12,
            "peak {} exceeds bound {}",
            out.peak_swa,
            bound
        );
    }

    #[test]
    fn segments_have_even_lengths() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let bound = compute_swafunc(&net, &DrivingBlock::Buffers, &cfg) * 0.7;
        let out = generate_constrained(&net, bound, &cfg);
        for seq in &out.sequences {
            for seg in &seq.segments {
                assert_eq!(seg.len % 2, 0);
                assert!(seg.len >= 2);
                assert!(seg.len <= cfg.seq_len);
            }
        }
    }

    #[test]
    fn tighter_bound_means_harder_generation() {
        let net = synth::generate(&synth::find("s386").unwrap());
        let cfg = FunctionalBistConfig::smoke();
        let loose = compute_swafunc(&net, &DrivingBlock::Buffers, &cfg);
        let out_loose = generate_constrained(&net, loose, &cfg);
        let out_tight = generate_constrained(&net, loose * 0.55, &cfg);
        // A tight bound can only lose (or tie) coverage relative to a loose
        // bound, and segments get shorter.
        assert!(out_tight.fault_coverage() <= out_loose.fault_coverage() + 1e-9);
        if out_tight.lmax() > 0 {
            assert!(out_tight.lmax() <= cfg.seq_len);
        }
    }

    #[test]
    fn unconstrained_bound_yields_full_length_segments() {
        // With bound = 1.0 (100% activity allowed) nothing is ever truncated:
        // each selected segment has the full length L.
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let out = generate_constrained(&net, 1.0, &cfg);
        for seq in &out.sequences {
            for seg in &seq.segments {
                assert_eq!(seg.len, cfg.seq_len);
            }
        }
        assert!(out.fault_coverage() > 40.0);
    }

    #[test]
    fn replay_reproduces_detections() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let bound = compute_swafunc(&net, &DrivingBlock::Buffers, &cfg);
        let out = generate_constrained(&net, bound, &cfg);
        let tests = replay_tests(&net, &out, &cfg);
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
    fn statistics_are_consistent() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let out = generate_constrained(&net, 1.0, &cfg);
        assert_eq!(
            out.nseeds(),
            out.sequences
                .iter()
                .map(|s| s.num_segments())
                .sum::<usize>()
        );
        assert!(out.nsegmax() <= out.nseeds());
        assert_eq!(out.nmulti(), out.sequences.len());
        let total_cycles: usize = out.sequences.iter().map(|s| s.total_len()).sum();
        assert_eq!(out.tests_applied, total_cycles / 2);
    }

    #[test]
    fn lint_preflight_preserves_constrained_outcome() {
        // Same circuit shape as the unconstrained pre-flight test: healthy
        // sequential logic plus a constant gate and a dangling chain.
        use fbt_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new("dead");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate(GateKind::Not, "na", &["a"]).unwrap();
        b.gate(GateKind::And, "k0", &["a", "na"]).unwrap();
        b.gate(GateKind::Or, "y", &["k0", "c"]).unwrap();
        b.gate(GateKind::Not, "dead", &["c"]).unwrap();
        b.gate(GateKind::Xor, "nxt", &["y", "q"]).unwrap();
        b.dff("q", "nxt").unwrap();
        b.output("y").unwrap();
        let net = b.finish().unwrap();

        let on = FunctionalBistConfig::smoke();
        let off = FunctionalBistConfig {
            lint_preflight: false,
            ..on.clone()
        };
        let a = generate_constrained(&net, 1.0, &on);
        let b = generate_constrained(&net, 1.0, &off);
        assert!(a.stats.faults_skipped_lint >= 2);
        assert_eq!(b.stats.faults_skipped_lint, 0);
        assert_eq!(a.sequences, b.sequences);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.tests_applied, b.tests_applied);
        assert_eq!(a.stats.seeds_tried, b.stats.seeds_tried);
    }

    #[test]
    fn deterministic() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let a = generate_constrained(&net, 0.5, &cfg);
        let b = generate_constrained(&net, 0.5, &cfg);
        assert_eq!(a.sequences, b.sequences);
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn speculation_matches_serial_exactly() {
        let net = s27();
        let bound = compute_swafunc(&net, &DrivingBlock::Buffers, &FunctionalBistConfig::smoke());
        let serial_cfg = FunctionalBistConfig {
            search: SearchOptions::serial(),
            ..FunctionalBistConfig::smoke()
        };
        let reference = generate_constrained(&net, bound, &serial_cfg);
        for (batch, threads) in [(2, 1), (4, 2), (16, 8)] {
            let cfg = FunctionalBistConfig {
                search: SearchOptions { batch, threads },
                ..FunctionalBistConfig::smoke()
            };
            let out = generate_constrained(&net, bound, &cfg);
            assert_eq!(out.sequences, reference.sequences, "batch {batch}");
            assert_eq!(out.detected, reference.detected, "batch {batch}");
            assert_eq!(out.tests_applied, reference.tests_applied);
            assert_eq!(out.peak_swa, reference.peak_swa);
            assert_eq!(out.stats.seeds_tried, reference.stats.seeds_tried);
        }
    }
}
