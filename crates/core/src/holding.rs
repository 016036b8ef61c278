//! Built-in test generation with state holding (paper §4.5).
//!
//! The exclusive use of functional broadside tests can leave faults
//! undetected that unrestricted broadside tests would catch. State holding
//! keeps selected flip-flops from capturing every `2^h` clock cycles during
//! on-chip generation, steering the circuit into (controlled) unreachable
//! states that detect some of those faults — while the switching-activity
//! bound `SWAfunc` continues to cap every applied cycle, so overtesting by
//! excessive power is still avoided. Hold sets are chosen with the
//! full-and-complete binary tree procedure of §4.5.2 (Fig. 4.12).
//!
//! Each construction run is the [`GenerationEngine`] with the same
//! [`SwaRule`] as the constrained method but a
//! [`StateOverlay::Hold`] — the admissibility geometry, seed search,
//! speculation and stats are shared; only the trajectory (and the resulting
//! two-pattern tests with explicit second states) differ.

use std::time::Instant;

use fbt_bist::holding::HoldSet;
use fbt_fault::TwoPatternTest;
use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sim::Bits;

use crate::constrained::ConstrainedOutcome;
use crate::engine::{self, ConstructOptions, ConstructionRun, GenerationEngine, StateOverlay};
use crate::outcome::{deref_summary, MultiSegmentSequence, OutcomeSummary};
use crate::policy::SwaRule;
use crate::stats::GenerationStats;
use crate::FunctionalBistConfig;

/// Result of the state-holding stage.
#[derive(Debug, Clone)]
pub struct HoldingOutcome {
    /// The selected non-overlapping hold sets (`Nh` of Table 4.4).
    pub sets: Vec<HoldSet>,
    /// The multi-segment sequences constructed for each selected set.
    pub sequences_per_set: Vec<Vec<MultiSegmentSequence>>,
    /// Coverage before holding, in percent.
    pub base_coverage: f64,
    /// The bound in force.
    pub swafunc: f64,
    /// The shared outcome facts: the base outcome's fault list, the final
    /// detection flags (functional broadside + holding), the holding-stage
    /// test count, the holding-stage peak activity (still ≤ `SWAfunc`) and
    /// the instrumentation aggregated over every construction run (probes
    /// and commitments). Field access forwards via `Deref`.
    pub summary: OutcomeSummary,
}

deref_summary!(HoldingOutcome);

impl HoldingOutcome {
    /// Final transition fault coverage in percent.
    pub fn final_coverage(&self) -> f64 {
        fbt_fault::sim::coverage_percent(&self.detected)
    }

    /// Coverage improvement contributed by state holding, in percent points
    /// ("FC Imp." of Table 4.4).
    pub fn improvement(&self) -> f64 {
        self.final_coverage() - self.base_coverage
    }

    /// Total held state variables (`Nbits` of Table 4.4).
    pub fn nbits(&self) -> usize {
        self.sets.iter().map(HoldSet::len).sum()
    }

    /// Total seeds across the holding stage.
    pub fn nseeds(&self) -> usize {
        self.sequences_per_set
            .iter()
            .flatten()
            .map(MultiSegmentSequence::num_segments)
            .sum()
    }

    /// Replay the holding-stage sequences (per selected set, under that
    /// set's hold overlay) and return the exact two-pattern tests they
    /// applied (see [`engine::replay_tests`]).
    pub fn replay_tests(&self, net: &Netlist, cfg: &FunctionalBistConfig) -> Vec<TwoPatternTest> {
        let n_ff = net.num_dffs();
        let mut all = Vec::with_capacity(self.tests_applied);
        for (set, seqs) in self.sets.iter().zip(&self.sequences_per_set) {
            let overlay = StateOverlay::Hold {
                mask: set.mask(n_ff),
                h: cfg.hold_period_log2,
            };
            all.extend(engine::replay_tests(net, cfg, &overlay, seqs).into_two_pattern());
        }
        all
    }

    /// The deterministic semantic summary as a JSON object — identical for
    /// every speculation setting (batch and thread count). This exact byte
    /// format is pinned by the committed `golden_ch4` fixtures; `fbt-serve`
    /// result artifacts embed it verbatim.
    pub fn summary_json(&self) -> String {
        let sets: Vec<String> = self
            .sets
            .iter()
            .map(|s| {
                let m: Vec<String> = s.members.iter().map(usize::to_string).collect();
                format!("[{}]", m.join(","))
            })
            .collect();
        format!(
            "{{\"base_coverage\":{},\"final_coverage\":{},\"num_detected\":{},\"nh\":{},\
             \"nbits\":{},\"nseeds\":{},\"sets\":[{}],\"tests_applied\":{},\"peak_swa\":{}}}",
            self.base_coverage,
            self.final_coverage(),
            self.num_detected(),
            self.sets.len(),
            self.nbits(),
            self.nseeds(),
            sets.join(","),
            self.tests_applied,
            self.peak_swa,
        )
    }
}

/// The search both hold-set selectors run: one engine over the base
/// outcome's full fault list, the `SWAfunc` rule, and the outcome being
/// built. Every probe and every commit is one construction run (the
/// Fig. 4.9 procedure with holding) under the set's
/// [`StateOverlay::Hold`], and its stats are absorbed in call order.
struct HoldingSearch<'n> {
    engine: GenerationEngine<'n>,
    cfg: &'n FunctionalBistConfig,
    rule: SwaRule,
    n_ff: usize,
    out: HoldingOutcome,
    t0: Instant,
}

impl<'n> HoldingSearch<'n> {
    /// A search starting from `base`'s detection flags.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations, or if `base` was produced for a
    /// different circuit (fault list length mismatch).
    fn new(
        net: &'n Netlist,
        swafunc: f64,
        cfg: &'n FunctionalBistConfig,
        base: &ConstrainedOutcome,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            base.faults.len(),
            fbt_fault::collapse(net, &fbt_fault::all_transition_faults(net)).len(),
            "base outcome does not match this circuit"
        );
        let t0 = Instant::now();
        HoldingSearch {
            // The holding stage fault-simulates the full base fault list (no
            // lint projection): unreachable held states can expose faults
            // the preflight's reachable-operation reasoning does not cover
            // conservatively.
            engine: GenerationEngine::with_faults(net, cfg, base.faults.clone(), false),
            cfg,
            rule: SwaRule { bound: swafunc },
            n_ff: net.num_dffs(),
            out: HoldingOutcome {
                sets: Vec::new(),
                sequences_per_set: Vec::new(),
                base_coverage: base.fault_coverage(),
                swafunc,
                summary: OutcomeSummary {
                    faults: Vec::new(),
                    detected: base.detected.clone(),
                    tests_applied: 0,
                    peak_swa: 0.0,
                    stats: GenerationStats::default(),
                },
            },
            t0,
        }
    }

    /// `cfg.hold_tree_height`, capped at ⌈log2 |FF|⌉: halving reaches
    /// single flip-flops by that level, so every set below it is empty.
    fn height(&self) -> u32 {
        let cap = self.n_ff.max(1).next_power_of_two().trailing_zeros();
        self.cfg.hold_tree_height.min(cap)
    }

    /// One construction run under `set`'s hold mask with the given `R`/`Q`
    /// limits, marking `detected`; returns how many faults it newly
    /// detected, and the run.
    fn run(
        &mut self,
        set: &[usize],
        limits: (usize, usize),
        detected: &mut [bool],
        rng: &mut Rng,
    ) -> (usize, ConstructionRun) {
        let overlay = StateOverlay::Hold {
            mask: HoldSet::new(set.to_vec()).mask(self.n_ff),
            h: self.cfg.hold_period_log2,
        };
        let zero = Bits::zeros(self.n_ff);
        let before = count(detected);
        let run = self.engine.construct(
            &self.rule,
            &overlay,
            &zero,
            rng,
            detected,
            &ConstructOptions {
                r_limit: limits.0,
                q_limit: limits.1,
                single_sequence: false,
                chain_state: true,
                keep_tests: false,
            },
        );
        self.out.stats.absorb(&run.stats);
        (count(detected) - before, run)
    }

    /// `set`'s detecting ability: a single-attempt run (`R = Q = 1`) from
    /// its own `seed`, on a copy of the current detection flags.
    fn probe(&mut self, set: &[usize], seed: u64) -> usize {
        let mut scratch = self.out.detected.clone();
        self.run(set, (1, 1), &mut scratch, &mut Rng::new(seed)).0
    }

    /// Run `set` with the full `R`/`Q` limits from `rng.fork()`, keeping it
    /// only if it detects new faults.
    fn commit(&mut self, set: Vec<usize>, rng: &mut Rng) {
        let cfg = self.cfg;
        let limits = (cfg.segment_failure_limit, cfg.attempt_failure_limit);
        let mut detected = std::mem::take(&mut self.out.detected);
        let (newly, run) = self.run(&set, limits, &mut detected, &mut rng.fork());
        self.out.detected = detected;
        if newly > 0 {
            self.out.sets.push(HoldSet::new(set));
            self.out.sequences_per_set.push(run.sequences);
            self.out.tests_applied += run.tests_applied;
            self.out.peak_swa = self.out.peak_swa.max(run.peak_swa);
        }
    }

    /// The built outcome, with the fault list and the stage's wall time.
    fn finish(self) -> HoldingOutcome {
        let mut out = self.out;
        out.stats.total_wall = self.t0.elapsed();
        out.faults = self.engine.into_faults();
        out
    }
}

/// Number of set detection flags.
fn count(detected: &[bool]) -> usize {
    detected.iter().filter(|&&d| d).count()
}

/// Run the optional state-holding stage after constrained generation.
///
/// # Example
///
/// ```
/// use fbt_core::driver::DrivingBlock;
/// use fbt_core::{generate_constrained, improve_with_holding, swafunc, FunctionalBistConfig};
///
/// let net = fbt_netlist::s27();
/// let cfg = FunctionalBistConfig::smoke();
/// let bound = swafunc(&net, &DrivingBlock::Buffers, &cfg) * 0.75;
/// let base = generate_constrained(&net, bound, &cfg);
/// let out = improve_with_holding(&net, bound, &cfg, &base);
/// assert!(out.final_coverage() >= base.fault_coverage());
/// assert!(out.peak_swa <= bound); // holding keeps the power envelope
/// ```
///
/// Implements the set-selection procedure of §4.5.2: a full and complete
/// binary tree of height `cfg.hold_tree_height` (at most ⌈log2 |FF|⌉, below
/// which every set is empty) is built by randomly halving the set of all
/// state variables; each node's *detecting ability* (`Det`) is
/// probed with a single-attempt construction run (`R = Q = 1`); the tree is
/// then resolved bottom-up into a partition, and each resulting subset is
/// committed with full `R`/`Q` limits if it detects additional faults.
///
/// # Panics
///
/// Panics if `base` was produced for a different circuit (fault list length
/// mismatch).
pub fn improve_with_holding(
    net: &Netlist,
    swafunc: f64,
    cfg: &FunctionalBistConfig,
    base: &ConstrainedOutcome,
) -> HoldingOutcome {
    let mut search = HoldingSearch::new(net, swafunc, cfg, base);
    let mut rng = Rng::new(cfg.master_seed ^ 0x401D);

    // Build the tree of candidate sets (heap layout, root at 0).
    let height = search.height();
    let n_nodes = (1usize << (height + 1)) - 1;
    let n_internal = (1usize << height) - 1;
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    sets[0] = (0..net.num_dffs()).collect();
    for i in 0..n_internal {
        if sets[i].len() < 2 {
            continue;
        }
        let mut shuffled = sets[i].clone();
        rng.shuffle(&mut shuffled);
        let mid = shuffled.len() / 2;
        let (a, b) = shuffled.split_at(mid);
        let mut a = a.to_vec();
        let mut b = b.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        sets[2 * i + 1] = a;
        sets[2 * i + 2] = b;
    }

    // Detecting ability per node, each probed against the base flags.
    let mut det = vec![0usize; n_nodes];
    for i in 0..n_nodes {
        if !sets[i].is_empty() {
            det[i] = search.probe(&sets[i], cfg.master_seed ^ (0xD37 + i as u64));
        }
    }

    // Bottom-up resolution into a partition (children have larger indices,
    // so a reverse scan visits them first).
    let mut selected: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n_nodes];
    for i in (0..n_nodes).rev() {
        if i >= n_internal {
            if det[i] > 0 {
                selected[i] = vec![sets[i].clone()];
            }
        } else {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let dmax = det[l].max(det[r]);
            if det[i] <= dmax {
                let mut merged = selected[l].clone();
                merged.extend(selected[r].clone());
                selected[i] = merged;
                det[i] = dmax;
            } else if !sets[i].is_empty() {
                selected[i] = vec![sets[i].clone()];
            }
        }
    }

    for subset in std::mem::take(&mut selected[0]) {
        search.commit(subset, &mut rng);
    }
    search.finish()
}

/// The §5.1 "advanced procedure" future-work item: greedy, coverage-adaptive
/// hold-set selection.
///
/// The binary-tree procedure probes every node against the *same* baseline,
/// so later subsets can re-target faults an earlier subset already detects
/// and "unnecessary state variables can be included" (§4.6, limitation 2).
/// The greedy variant re-probes the remaining candidate groups against the
/// *current* detection state after every commitment and stops when no group
/// helps — never selecting a set that contributes nothing.
///
/// Candidate granularity matches the tree's leaves: the flip-flops are
/// randomly partitioned into `2^H` groups.
///
/// # Panics
///
/// Panics if `base` was produced for a different circuit (fault list length
/// mismatch).
pub fn improve_with_holding_greedy(
    net: &Netlist,
    swafunc: f64,
    cfg: &FunctionalBistConfig,
    base: &ConstrainedOutcome,
) -> HoldingOutcome {
    let mut search = HoldingSearch::new(net, swafunc, cfg, base);
    let n_ff = net.num_dffs();
    let mut rng = Rng::new(cfg.master_seed ^ 0x93EED);

    // Random partition into 2^H groups (non-empty ones only).
    let n_groups = (1usize << search.height()).min(n_ff.max(1));
    let mut order: Vec<usize> = (0..n_ff).collect();
    rng.shuffle(&mut order);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
    for (i, ff) in order.into_iter().enumerate() {
        groups[i % n_groups].push(ff);
    }
    groups.retain(|g| !g.is_empty());
    for g in &mut groups {
        g.sort_unstable();
    }

    while !groups.is_empty() {
        // Probe every remaining group against the current detection state.
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (gi, g) in groups.iter().enumerate() {
            let gain = search.probe(g, cfg.master_seed ^ (0x6EED + gi as u64));
            if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, gi));
            }
        }
        let Some((_, gi)) = best else { break };
        search.commit(groups.remove(gi), &mut rng);
    }
    search.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{swafunc as compute_swafunc, DrivingBlock};
    use crate::generate_constrained;
    use fbt_fault::{FaultSimEngine, FaultSimOptions, PackedParallelSim, TestSet};
    use fbt_netlist::{s27, synth};

    fn base_for(net: Netlist) -> (Netlist, f64, FunctionalBistConfig, ConstrainedOutcome) {
        let cfg = FunctionalBistConfig::smoke();
        // A deliberately tight bound so functional broadside tests leave
        // faults on the table for holding to pick up.
        let bound = compute_swafunc(&net, &DrivingBlock::Buffers, &cfg) * 0.75;
        let base = generate_constrained(&net, bound, &cfg);
        (net, bound, cfg, base)
    }

    fn base_outcome() -> (Netlist, f64, FunctionalBistConfig, ConstrainedOutcome) {
        base_for(s27())
    }

    fn s298() -> Netlist {
        synth::generate(&synth::find("s298").unwrap())
    }

    #[test]
    fn holding_never_reduces_coverage() {
        let (net, bound, cfg, base) = base_outcome();
        let out = improve_with_holding(&net, bound, &cfg, &base);
        assert!(out.final_coverage() + 1e-9 >= out.base_coverage);
        assert!(out.improvement() >= -1e-9);
    }

    #[test]
    fn holding_respects_the_activity_bound() {
        let (net, bound, cfg, base) = base_outcome();
        let out = improve_with_holding(&net, bound, &cfg, &base);
        assert!(
            out.peak_swa <= bound + 1e-12,
            "peak {} exceeds bound {}",
            out.peak_swa,
            bound
        );
    }

    #[test]
    fn selected_sets_are_non_overlapping() {
        let (net, bound, cfg, base) = base_outcome();
        let out = improve_with_holding(&net, bound, &cfg, &base);
        let mut seen = vec![false; net.num_dffs()];
        for s in &out.sets {
            for &m in &s.members {
                assert!(!seen[m], "flip-flop {m} in two sets");
                seen[m] = true;
            }
        }
        assert_eq!(
            out.nbits(),
            out.sets.iter().map(HoldSet::len).sum::<usize>()
        );
    }

    #[test]
    fn replay_reproduces_the_holding_stage() {
        // Replaying the per-set sequences under their hold overlays must
        // reproduce the test count and re-detect everything beyond the base.
        let (net, bound, cfg, base) = base_outcome();
        let out = improve_with_holding(&net, bound, &cfg, &base);
        let tests = out.replay_tests(&net, &cfg);
        assert_eq!(tests.len(), out.tests_applied);
        let mut detected = base.detected.clone();
        let mut fsim = PackedParallelSim::new(&net);
        fsim.simulate(
            TestSet::TwoPattern(&tests),
            &out.faults,
            &mut detected,
            &FaultSimOptions::new(),
        );
        assert_eq!(detected, out.detected);
    }

    #[test]
    fn greedy_selection_never_keeps_useless_sets() {
        let (net, bound, cfg, base) = base_outcome();
        let out = improve_with_holding_greedy(&net, bound, &cfg, &base);
        assert!(out.final_coverage() + 1e-9 >= out.base_coverage);
        assert!(out.peak_swa <= bound + 1e-12);
        // Every kept set contributed: removing any one loses coverage is
        // hard to re-check cheaply, but at minimum each set is non-empty
        // and the sets are disjoint.
        let mut seen = vec![false; net.num_dffs()];
        for s in &out.sets {
            assert!(!s.is_empty());
            for &m in &s.members {
                assert!(!seen[m]);
                seen[m] = true;
            }
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let (net, bound, cfg, base) = base_outcome();
        let a = improve_with_holding_greedy(&net, bound, &cfg, &base);
        let b = improve_with_holding_greedy(&net, bound, &cfg, &base);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.sets.len(), b.sets.len());
    }

    #[test]
    fn deterministic() {
        let (net, bound, cfg, base) = base_outcome();
        let a = improve_with_holding(&net, bound, &cfg, &base);
        let b = improve_with_holding(&net, bound, &cfg, &base);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.sets.len(), b.sets.len());
    }

    #[test]
    fn speculation_matches_serial_exactly() {
        // The greedy selector keeps no set on s27 and three on s298.
        for (net, bound, cfg, base) in [base_outcome(), base_for(s298())] {
            let serial_cfg = FunctionalBistConfig {
                search: crate::SearchOptions::serial(),
                ..cfg.clone()
            };
            for select in [improve_with_holding, improve_with_holding_greedy] {
                let reference = select(&net, bound, &serial_cfg, &base);
                for (batch, threads) in [(4, 1), (16, 2)] {
                    let spec_cfg = FunctionalBistConfig {
                        search: crate::SearchOptions { batch, threads },
                        ..cfg.clone()
                    };
                    let out = select(&net, bound, &spec_cfg, &base);
                    assert_eq!(out.detected, reference.detected, "batch {batch}");
                    assert_eq!(out.sets, reference.sets, "batch {batch}");
                    assert_eq!(out.sequences_per_set, reference.sequences_per_set);
                    assert_eq!(out.tests_applied, reference.tests_applied);
                }
            }
        }
    }

    #[test]
    fn tall_tree_selects_as_its_populated_height() {
        // s27 has 3 flip-flops, so halving reaches single flip-flops at
        // level 2 and every set below it is empty. Under the untightened
        // bound the tree keeps a set.
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let bound = compute_swafunc(&net, &DrivingBlock::Buffers, &cfg);
        let base = generate_constrained(&net, bound, &cfg);
        let at = |h| FunctionalBistConfig {
            hold_tree_height: h,
            ..cfg.clone()
        };
        for select in [improve_with_holding, improve_with_holding_greedy] {
            let low = select(&net, bound, &at(2), &base);
            let tall = select(&net, bound, &at(64), &base);
            assert_eq!(tall.summary_json(), low.summary_json());
            assert_eq!(tall.stats.counters_json(), low.stats.counters_json());
        }
    }

    #[test]
    #[should_panic(expected = "base outcome does not match this circuit")]
    fn greedy_rejects_another_circuits_base() {
        let (_, bound, cfg, base) = base_for(s298());
        let _ = improve_with_holding_greedy(&s27(), bound, &cfg, &base);
    }
}
