//! The unified, policy-driven generation engine behind every Chapter-4 mode.
//!
//! The three generation procedures — unconstrained (§4.3), PI-constrained
//! multi-segment (§4.4, Fig. 4.9) and state-holding (§4.5) — are variants of
//! one seed-search loop: draw a candidate LFSR seed, expand it into a
//! primary-input sequence, truncate it to its admissible prefix, simulate
//! and fault-simulate the prefix, and commit the seed only if its tests
//! detect new faults. [`GenerationEngine::construct`] owns that loop once,
//! including the deterministic speculative-batch evaluation of
//! [`crate::search`], the lint preflight projection (`crate::preflight`)
//! and the [`GenerationStats`] accounting. Every drawn seed expands through
//! the engine's own [`TpgSeedSource`] (the biased TPG of Fig. 4.4); the
//! loop is parameterized by two small policies:
//!
//! * [`crate::policy::AdmissibilityPolicy`] — how much of a candidate may be
//!   applied (`SWAfunc` bound, signal-transition patterns, or unbounded);
//! * [`StateOverlay`] — how the circuit's state evolves (plain functional
//!   simulation, or the §4.5 hold-mask DFT every `2^h` cycles).
//!
//! The loop's outcome is bit-identical to the three pre-engine loops for
//! every `(circuit, config, batch, threads)` combination — pinned by the
//! differential suites and the committed golden fixtures of
//! `tests/golden_ch4.rs`.

use std::time::Instant;

use fbt_bist::{cube, Tpg, TpgSpec};
use fbt_fault::{all_transition_faults, collapse, TransitionFault};
use fbt_fault::{
    BroadsideTest, FaultSimEngine, FaultSimOptions, PackedParallelSim, TestGroup, TestSet,
    TwoPatternTest,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sim::lanes::{extract_lane, LaneSeqSim};
use fbt_sim::seq::SeqSim;
use fbt_sim::Bits;

use crate::extract::{functional_tests, held_tests};
use crate::outcome::{MultiSegmentSequence, Segment};
use crate::policy::{prefix_before, AdmissibilityPolicy};
use crate::progress::Progress;
use crate::search::SeedQueue;
use crate::stats::GenerationStats;
use crate::FunctionalBistConfig;

/// How a drawn seed becomes a primary-input sequence.
///
/// Implementations must be pure: the engine evaluates candidates
/// speculatively and re-evaluates requeued seeds, so `expand` must yield
/// the same sequence for the same seed on every call.
pub trait SeedSource: Sync {
    /// Expand `seed` into a primary-input sequence of `len` cycles.
    fn expand(&self, seed: u64, len: usize) -> Vec<Bits>;
}

/// The paper's on-chip TPG (Fig. 4.4): an LFSR feeding `m`-input biasing
/// gates under the driving block's input cube.
#[derive(Debug, Clone)]
pub struct TpgSeedSource {
    /// The TPG structure each seed is loaded into.
    pub spec: TpgSpec,
}

impl TpgSeedSource {
    /// A source from an explicit TPG structure.
    pub fn new(spec: TpgSpec) -> Self {
        TpgSeedSource { spec }
    }

    /// The TPG the generation flow uses for `net` under `cfg`: LFSR width
    /// `NLFSR`, biasing fan-in `m`, and the circuit's input cube.
    pub fn for_circuit(net: &Netlist, cfg: &FunctionalBistConfig) -> Self {
        TpgSeedSource {
            spec: TpgSpec {
                lfsr_width: cfg.lfsr_width,
                m: cfg.m,
                cube: cube::input_cube(net),
            },
        }
    }
}

impl SeedSource for TpgSeedSource {
    fn expand(&self, seed: u64, len: usize) -> Vec<Bits> {
        Tpg::new(self.spec.clone(), seed).sequence(len)
    }
}

/// How the circuit's state evolves while a candidate sequence is applied.
#[derive(Debug, Clone)]
pub enum StateOverlay {
    /// Plain functional simulation: every flip-flop captures every cycle.
    /// Trajectories stay reachable, tests are functional broadside tests.
    Identity,
    /// The §4.5 state-holding DFT: the masked flip-flops skip the state
    /// update on every `2^h`-th cycle, steering the circuit into controlled
    /// unreachable states. Tests carry explicit second states
    /// ([`TwoPatternTest`]).
    Hold {
        /// Held flip-flops (1 = hold).
        mask: Bits,
        /// Hold period exponent: hold on cycles `c` with `c % 2^h == 0`.
        h: u32,
    },
}

impl StateOverlay {
    /// The hold mask in force at clock cycle `c`, if any — the single
    /// definition of the §4.5 hold schedule, shared by
    /// [`StateOverlay::simulate`] and the engine's multi-lane rounds.
    pub fn hold_mask_at(&self, c: usize) -> Option<&Bits> {
        match self {
            StateOverlay::Identity => None,
            StateOverlay::Hold { mask, h } => (c as u64 & ((1 << h) - 1) == 0).then_some(mask),
        }
    }

    /// Apply `pis` from `start` and return the traversed states
    /// (`pis.len() + 1` entries) and per-cycle switching activities.
    pub fn simulate(
        &self,
        net: &Netlist,
        start: &Bits,
        pis: &[Bits],
    ) -> (Vec<Bits>, Vec<Option<f64>>) {
        let mut sim = SeqSim::new(net, start);
        let mut states = Vec::with_capacity(pis.len() + 1);
        let mut swa = Vec::with_capacity(pis.len());
        states.push(start.clone());
        for (c, pi) in pis.iter().enumerate() {
            let r = sim.step_holding(pi, self.hold_mask_at(c));
            states.push(r.next_state);
            swa.push(r.switching_activity);
        }
        (states, swa)
    }

    /// Extract the non-overlapping tests of a simulated prefix. Identity
    /// trajectories yield functional broadside tests; held trajectories
    /// need explicit second states (§4.5.1).
    pub fn extract_tests(&self, pis: &[Bits], states: &[Bits]) -> OwnedTests {
        match self {
            StateOverlay::Identity => OwnedTests::Broadside(functional_tests(pis, states)),
            StateOverlay::Hold { .. } => OwnedTests::TwoPattern(held_tests(pis, states)),
        }
    }

    /// An empty test container of the variant this overlay produces.
    fn empty_tests(&self) -> OwnedTests {
        match self {
            StateOverlay::Identity => OwnedTests::Broadside(Vec::new()),
            StateOverlay::Hold { .. } => OwnedTests::TwoPattern(Vec::new()),
        }
    }
}

/// An owned set of extracted tests, broadside or two-pattern depending on
/// the [`StateOverlay`] that produced them.
#[derive(Debug, Clone)]
pub enum OwnedTests {
    /// Functional broadside tests (identity overlay).
    Broadside(Vec<BroadsideTest>),
    /// Two-pattern tests with explicit second states (hold overlay).
    TwoPattern(Vec<TwoPatternTest>),
}

impl Default for OwnedTests {
    fn default() -> Self {
        OwnedTests::Broadside(Vec::new())
    }
}

impl OwnedTests {
    /// Number of tests.
    pub fn len(&self) -> usize {
        match self {
            OwnedTests::Broadside(t) => t.len(),
            OwnedTests::TwoPattern(t) => t.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A borrowed view for the fault-simulation engine.
    pub fn as_set(&self) -> TestSet<'_> {
        match self {
            OwnedTests::Broadside(t) => TestSet::Broadside(t),
            OwnedTests::TwoPattern(t) => TestSet::TwoPattern(t),
        }
    }

    /// Unwrap as broadside tests.
    ///
    /// # Panics
    ///
    /// Panics if the tests are two-pattern tests.
    pub fn into_broadside(self) -> Vec<BroadsideTest> {
        match self {
            OwnedTests::Broadside(t) => t,
            OwnedTests::TwoPattern(_) => panic!("expected broadside tests, got two-pattern tests"),
        }
    }

    /// Unwrap as two-pattern tests.
    ///
    /// # Panics
    ///
    /// Panics if the tests are broadside tests.
    pub fn into_two_pattern(self) -> Vec<TwoPatternTest> {
        match self {
            OwnedTests::TwoPattern(t) => t,
            OwnedTests::Broadside(_) => panic!("expected two-pattern tests, got broadside tests"),
        }
    }

    /// Append `other` (same variant required).
    ///
    /// # Panics
    ///
    /// Panics on a variant mismatch.
    pub fn append(&mut self, other: OwnedTests) {
        match (self, other) {
            (OwnedTests::Broadside(a), OwnedTests::Broadside(b)) => a.extend(b),
            (OwnedTests::TwoPattern(a), OwnedTests::TwoPattern(b)) => a.extend(b),
            _ => panic!("cannot mix broadside and two-pattern tests"),
        }
    }
}

/// The loop-shape knobs distinguishing the three Chapter-4 modes. The
/// engine's search semantics (draw order, commit order, stopping conditions,
/// stats) are identical across modes; only these vary.
#[derive(Debug, Clone, Copy)]
pub struct ConstructOptions {
    /// Consecutive seed failures ending a sequence (the paper's `R`; the
    /// unconstrained method's useless-seed limit `U`).
    pub r_limit: usize,
    /// Consecutive failed sequence attempts ending the run (the paper's
    /// `Q`; `1` for single-sequence modes).
    pub q_limit: usize,
    /// Stop after the first sequence attempt (the unconstrained method
    /// builds one flat seed list, not a set of multi-segment sequences).
    pub single_sequence: bool,
    /// Chain segments: each accepted segment's final state becomes the next
    /// candidate's start state (§4.4's held-state seed reload). Off, every
    /// candidate starts from the sequence's initial state.
    pub chain_state: bool,
    /// Cache every accepted segment's extracted tests in the run result —
    /// required by the unconstrained method's reverse compaction, wasteful
    /// for the multi-segment modes.
    pub keep_tests: bool,
}

/// One accepted segment, in commit order.
#[derive(Debug, Clone)]
pub struct KeptSegment {
    /// The committed seed.
    pub seed: u64,
    /// The admissible prefix length applied from it.
    pub len: usize,
    /// The extracted tests (empty unless [`ConstructOptions::keep_tests`]).
    pub tests: OwnedTests,
    /// Peak switching activity over the applied prefix.
    pub peak_swa: f64,
}

/// The result of one [`GenerationEngine::construct`] run.
#[derive(Debug, Clone)]
pub struct ConstructionRun {
    /// The constructed multi-segment sequences.
    pub sequences: Vec<MultiSegmentSequence>,
    /// Every accepted segment in commit order (tests populated only with
    /// [`ConstructOptions::keep_tests`]).
    pub kept: Vec<KeptSegment>,
    /// Tests applied across all accepted segments.
    pub tests_applied: usize,
    /// Peak switching activity across all accepted segments.
    pub peak_swa: f64,
    /// Search instrumentation for this run.
    pub stats: GenerationStats,
}

/// The result of a reverse-compaction pass over kept segments.
#[derive(Debug, Clone)]
pub struct Compaction {
    /// Indices into the kept list that survive, in application order.
    pub kept_indices: Vec<usize>,
    /// Full-length detection flags of the surviving segments.
    pub detected: Vec<bool>,
    /// Tests applied by the surviving segments.
    pub tests_applied: usize,
    /// Peak switching activity over the surviving segments.
    pub peak_swa: f64,
}

/// One speculative candidate evaluation: everything the commit step needs,
/// computed against snapshots of the detection flags and the sequence's
/// current state.
struct Candidate {
    /// Admissible prefix length (`< 2` = inadmissible).
    len: usize,
    /// The extracted tests of the prefix.
    tests: OwnedTests,
    /// Faults newly detected relative to the snapshot, as indices into the
    /// full fault list (empty = reject).
    newly: Vec<usize>,
    /// Peak activity over the prefix trajectory.
    peak_swa: f64,
    /// The state reached at the end of the prefix.
    next_state: Option<Bits>,
    /// Logic-simulated cycles this evaluation cost.
    cycles: usize,
}

/// The unified seed-search engine: owns the circuit's TPG, the collapsed
/// fault list, its lint preflight projection and the fault simulator every
/// round and compaction pass shares, and runs the Fig. 4.9 construction
/// loop under any policy combination.
#[derive(Debug)]
pub struct GenerationEngine<'n> {
    net: &'n Netlist,
    cfg: &'n FunctionalBistConfig,
    /// The TPG every drawn seed is expanded through.
    source: TpgSeedSource,
    faults: Vec<TransitionFault>,
    active_faults: Vec<TransitionFault>,
    active_idx: Vec<usize>,
    /// One engine for the whole search, so its kernel handle and worker
    /// scratch are reused by every round and the compaction pass.
    fsim: PackedParallelSim<'n>,
    /// Compiled-kernel cache activity attributable to this engine's
    /// construction (global-counter delta around the simulator build).
    kernel_stats: fbt_sim::kernel::CacheStats,
    /// Observation/cancellation handle for `construct` runs. The default
    /// handle is never cancelled and nobody observes it, so attaching one
    /// cannot change an outcome.
    progress: Progress,
}

impl<'n> GenerationEngine<'n> {
    /// An engine over the circuit's own collapsed transition-fault list,
    /// with the lint preflight as configured.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (see
    /// [`FunctionalBistConfig::validate`]).
    pub fn new(net: &'n Netlist, cfg: &'n FunctionalBistConfig) -> Self {
        cfg.validate();
        let faults = collapse(net, &all_transition_faults(net));
        Self::with_faults(net, cfg, faults, cfg.lint_preflight)
    }

    /// An engine over an explicit fault list. `lint_preflight` controls the
    /// static projection: faults the lint analysis proves untestable never
    /// enter the simulator but stay `false` in the full-length detection
    /// flags, so outcomes are bit-identical either way.
    pub fn with_faults(
        net: &'n Netlist,
        cfg: &'n FunctionalBistConfig,
        faults: Vec<TransitionFault>,
        lint_preflight: bool,
    ) -> Self {
        cfg.validate();
        let (active_faults, active_idx) =
            crate::preflight::project_active(net, &faults, lint_preflight);
        let kernel_before = fbt_sim::kernel::cache_stats();
        let fsim = PackedParallelSim::new(net);
        let kernel_stats = fbt_sim::kernel::cache_stats().since(&kernel_before);
        GenerationEngine {
            net,
            cfg,
            source: TpgSeedSource::for_circuit(net, cfg),
            faults,
            active_faults,
            active_idx,
            fsim,
            kernel_stats,
            progress: Progress::default(),
        }
    }

    /// Attach a [`Progress`] handle: subsequent [`Self::construct`] runs
    /// publish their counters into it after every speculative round and
    /// honor its cancellation flag at round boundaries. A cancelled run
    /// returns early with everything committed so far — a valid partial
    /// outcome, bit-identical to the uncancelled run's prefix.
    pub fn set_progress(&mut self, progress: Progress) {
        self.progress = progress;
    }

    /// Number of faults in the full list.
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// Consume the engine, yielding the fault list for the outcome.
    pub fn into_faults(self) -> Vec<TransitionFault> {
        self.faults
    }

    /// Run the construction loop: build multi-segment sequences whose
    /// accepted segments detect new faults, marking `detected` (full-length
    /// flags) as commits happen.
    ///
    /// Candidates are drawn from `rng` via the order-preserving
    /// `SeedQueue` and evaluated speculatively in batches of
    /// `cfg.search.batch`; results commit serially in draw order, so the
    /// outcome is bit-identical to the serial loop for every batch size and
    /// thread count.
    ///
    /// Every sequence starts from the reachable state `start`.
    ///
    /// # Panics
    ///
    /// Panics if `detected` does not match the fault list length.
    pub fn construct<P: AdmissibilityPolicy + ?Sized>(
        &mut self,
        policy: &P,
        overlay: &StateOverlay,
        start: &Bits,
        rng: &mut Rng,
        detected: &mut [bool],
        opts: &ConstructOptions,
    ) -> ConstructionRun {
        assert_eq!(
            detected.len(),
            self.faults.len(),
            "detection flags length mismatch"
        );
        let t0 = Instant::now();
        let cfg = self.cfg;
        let progress = self.progress.clone();
        let mut queue = SeedQueue::new();
        let mut stats = GenerationStats {
            faults_skipped_lint: self.faults.len() - self.active_faults.len(),
            kernel_builds: self.kernel_stats.builds,
            kernel_cache_hits: self.kernel_stats.hits,
            kernel_build_wall: self.kernel_stats.build_wall,
            ..GenerationStats::default()
        };

        let mut sequences: Vec<MultiSegmentSequence> = Vec::new();
        let mut kept: Vec<KeptSegment> = Vec::new();
        let mut tests_applied = 0usize;
        let mut peak_swa = 0.0f64;
        let mut attempt_failures = 0usize;
        let mut seeds_tried = 0usize;

        'run: while attempt_failures < opts.q_limit && seeds_tried < cfg.max_seeds {
            if progress.is_cancelled() {
                break 'run;
            }
            // Construct one multi-segment sequence from the start state.
            let mut cur_state = start.clone();
            let mut seq = MultiSegmentSequence::new(start.clone());
            let mut seed_failures = 0usize;
            'segment: while seed_failures < opts.r_limit && seeds_tried < cfg.max_seeds {
                // Cancellation is honored at round granularity: the batch in
                // flight finishes and commits, nothing torn escapes.
                if progress.is_cancelled() {
                    break 'segment;
                }
                progress.publish(&stats);
                let batch = queue.draw(rng, cfg.search.batch);
                let evals = self.round(policy, overlay, &batch, &cur_state, detected);
                stats.evals += evals.len();
                for ev in &evals {
                    stats.sim_cycles += ev.cycles;
                }
                // One group per fault-simulated candidate, all submitted in
                // a single engine invocation per round.
                let n_groups = evals.iter().filter(|e| e.len >= 2).count();
                stats.candidate_groups += n_groups;
                stats.fsim_calls += usize::from(n_groups > 0);
                for (k, cand) in evals.into_iter().enumerate() {
                    if seed_failures >= opts.r_limit || seeds_tried >= cfg.max_seeds {
                        queue.requeue(&batch[k..]);
                        break 'segment;
                    }
                    seeds_tried += 1;
                    stats.seeds_tried += 1;
                    if cand.newly.is_empty() {
                        seed_failures += 1;
                    } else {
                        for i in cand.newly {
                            detected[i] = true;
                        }
                        tests_applied += cand.tests.len();
                        peak_swa = peak_swa.max(cand.peak_swa);
                        if opts.chain_state {
                            cur_state = cand.next_state.expect("accepted candidates carry a state");
                        }
                        seq.segments.push(Segment {
                            seed: batch[k],
                            len: cand.len,
                        });
                        kept.push(KeptSegment {
                            seed: batch[k],
                            len: cand.len,
                            tests: if opts.keep_tests {
                                cand.tests
                            } else {
                                overlay.empty_tests()
                            },
                            peak_swa: cand.peak_swa,
                        });
                        seed_failures = 0;
                        stats.seeds_kept += 1;
                        // Later candidates saw a stale snapshot: requeue them.
                        queue.requeue(&batch[k + 1..]);
                        continue 'segment;
                    }
                }
            }
            if opts.single_sequence {
                if !seq.segments.is_empty() {
                    sequences.push(seq);
                }
                break 'run;
            }
            if seq.segments.is_empty() {
                attempt_failures += 1;
            } else {
                attempt_failures = 0;
                sequences.push(seq);
            }
        }
        stats.wasted_evals = stats.evals - stats.seeds_tried;
        stats.select_wall = t0.elapsed();
        stats.total_wall = t0.elapsed();
        progress.publish(&stats);

        ConstructionRun {
            sequences,
            kept,
            tests_applied,
            peak_swa,
            stats,
        }
    }

    /// Forward-looking reverse compaction over kept segments (the §4.3
    /// pruning pass): walk the segments in reverse application order with a
    /// fresh fault list; a segment whose cached tests detect nothing beyond
    /// what the later-applied ones already detect is dropped. Coverage is
    /// preserved by construction, and the cached test vectors make this a
    /// pure fault-simulation pass: no TPG re-expansion, no logic
    /// re-simulation.
    ///
    /// Requires the run to have used [`ConstructOptions::keep_tests`].
    pub fn compact(&mut self, kept: &[KeptSegment], stats: &mut GenerationStats) -> Compaction {
        let tc = Instant::now();
        let active_faults = &self.active_faults;
        let mut active_final = vec![false; active_faults.len()];
        let mut kept_indices: Vec<usize> = Vec::new();
        let mut tests_applied = 0usize;
        let mut peak_swa = 0.0f64;
        let fsim = &mut self.fsim;
        for (i, seg) in kept.iter().enumerate().rev() {
            let newly = fsim
                .simulate(
                    seg.tests.as_set(),
                    active_faults,
                    &mut active_final,
                    &FaultSimOptions::new(),
                )
                .newly_detected;
            stats.fsim_calls += 1;
            stats.candidate_groups += 1;
            if newly > 0 {
                kept_indices.push(i);
                tests_applied += seg.tests.len();
                peak_swa = peak_swa.max(seg.peak_swa);
            }
        }
        kept_indices.reverse();
        // Scatter the active-space flags back into the full-length list;
        // the lint-skipped faults remain false.
        let mut detected = vec![false; self.faults.len()];
        for (j, &i) in self.active_idx.iter().enumerate() {
            detected[i] = active_final[j];
        }
        stats.compact_wall = tc.elapsed();
        Compaction {
            kept_indices,
            detected,
            tests_applied,
            peak_swa,
        }
    }

    /// One candidate-packed speculative round — the search's only evaluation
    /// path, for every batch width and policy.
    ///
    /// **Stage A** expands every candidate seed and simulates all of them as
    /// lanes of one [`LaneSeqSim`] pass (chunks of 64 for larger batches): a
    /// single levelized evaluation per cycle serves the whole batch. After
    /// each cycle the policy may reject lanes from their node words
    /// ([`AdmissibilityPolicy::inadmissible_lanes`]); once every lane is
    /// rejected no later cycle can enter a prefix and the pass stops. Each
    /// lane's admissible prefix is the shorter of the one its first rejected
    /// cycle leaves and the one its switching-activity trace allows
    /// ([`AdmissibilityPolicy::admissible_prefix_from_trace`]).
    ///
    /// **Stage B** submits all admissible candidates as one grouped
    /// fault-simulation call: each candidate is an independent [`TestGroup`]
    /// credited against the shared detection snapshot, packed across the
    /// engine's 64 bit-lanes with lane-masked dropping. `until_first_accept`
    /// skips the words past the first accepting group — the commit loop
    /// discards those results anyway (their snapshots are stale).
    fn round<P: AdmissibilityPolicy + ?Sized>(
        &mut self,
        policy: &P,
        overlay: &StateOverlay,
        seeds: &[u64],
        start: &Bits,
        snapshot: &[bool],
    ) -> Vec<Candidate> {
        let net = self.net;
        let cfg = self.cfg;
        let seq_len = cfg.seq_len;
        let probe = policy.probe_cycles(seq_len);
        let mut cands: Vec<Candidate> = Vec::with_capacity(seeds.len());
        for chunk in seeds.chunks(64) {
            let lanes = chunk.len();
            let pis: Vec<Vec<Bits>> = chunk
                .iter()
                .map(|&s| self.source.expand(s, seq_len))
                .collect();
            let mut sim = LaneSeqSim::new(net, lanes);
            sim.broadcast_state(start);
            // One flat buffer for the per-cycle packed states: cycle `c` lives at
            // `[c * sw .. (c + 1) * sw]`. A single up-front allocation instead of
            // `seq_len` small vectors per chunk.
            let sw = sim.state_words().len();
            let mut state_words: Vec<u64> = Vec::with_capacity(seq_len * sw);
            let mut swa: Vec<Vec<Option<f64>>> = vec![Vec::with_capacity(seq_len); lanes];
            let mut first_rejected: Vec<Option<usize>> = vec![None; lanes];
            let mut live = u64::MAX >> (64 - lanes);
            // `c` indexes the inner (cycle) axis of `pis` inside the closure;
            // there is no outer slice to iterate.
            #[allow(clippy::needless_range_loop)]
            for c in 0..seq_len {
                sim.step_with(|l| &pis[l][c], overlay.hold_mask_at(c));
                state_words.extend_from_slice(sim.state_words());
                match sim.swa() {
                    Some(s) => {
                        for (l, t) in swa.iter_mut().enumerate() {
                            t.push(Some(s[l]));
                        }
                    }
                    None => {
                        for t in swa.iter_mut() {
                            t.push(None);
                        }
                    }
                }
                let mut rejected = policy.inadmissible_lanes(&sim, live) & live;
                live &= !rejected;
                while rejected != 0 {
                    first_rejected[rejected.trailing_zeros() as usize] = Some(c);
                    rejected &= rejected - 1;
                }
                if live == 0 {
                    break;
                }
            }
            for (l, seed_pis) in pis.iter().enumerate() {
                let len = policy
                    .admissible_prefix_from_trace(&swa[l], seq_len)
                    .unwrap_or(seq_len & !1)
                    .min(prefix_before(first_rejected[l], seq_len));
                if len < 2 {
                    cands.push(Candidate {
                        len,
                        tests: overlay.empty_tests(),
                        newly: Vec::new(),
                        peak_swa: 0.0,
                        next_state: None,
                        cycles: probe,
                    });
                    continue;
                }
                // The lane's state trajectory s(0) … s(len).
                let mut states: Vec<Bits> = Vec::with_capacity(len + 1);
                states.push(start.clone());
                for c in 0..len {
                    states.push(extract_lane(&state_words[c * sw..(c + 1) * sw], l));
                }
                let prefix = &seed_pis[..len];
                let tests = overlay.extract_tests(prefix, &states);
                let peak_swa = swa[l][..len]
                    .iter()
                    .flatten()
                    .fold(0.0f64, |a, &b| a.max(b));
                cands.push(Candidate {
                    len,
                    tests,
                    newly: Vec::new(),
                    peak_swa,
                    next_state: Some(states[len].clone()),
                    cycles: probe + len,
                });
            }
        }

        let groups: Vec<TestGroup<'_>> = cands
            .iter()
            .filter(|c| c.len >= 2)
            .map(|c| TestGroup::new(c.tests.as_set()))
            .collect();
        if groups.is_empty() {
            return cands;
        }
        // Simulate only the lint-surviving faults; report newly detected ones
        // as indices into the full list.
        let base: Vec<bool> = self.active_idx.iter().map(|&i| snapshot[i]).collect();
        let outs = self.fsim.simulate_groups(
            &groups,
            &self.active_faults,
            &base,
            &FaultSimOptions::new()
                .threads(cfg.search.threads)
                .until_first_accept(true),
        );
        let mut it = outs.into_iter();
        for cand in cands.iter_mut().filter(|c| c.len >= 2) {
            let out = it.next().expect("one outcome per group");
            cand.newly = out.newly.iter().map(|&j| self.active_idx[j]).collect();
        }
        cands
    }
}

/// Replay constructed sequences and return their extracted tests — works
/// for every mode: pass the mode's [`StateOverlay`]; seeds expand through
/// the circuit's TPG under `cfg`, as in the engine. Used by verification
/// and by downstream stages that need the exact test set an outcome
/// applied.
pub fn replay_tests(
    net: &Netlist,
    cfg: &FunctionalBistConfig,
    overlay: &StateOverlay,
    sequences: &[MultiSegmentSequence],
) -> OwnedTests {
    let source = TpgSeedSource::for_circuit(net, cfg);
    let mut all = overlay.empty_tests();
    for seq in sequences {
        let mut cur = seq.initial_state.clone();
        for seg in &seq.segments {
            let pis = source.expand(seg.seed, cfg.seq_len);
            let prefix = &pis[..seg.len];
            let (states, _) = overlay.simulate(net, &cur, prefix);
            all.append(overlay.extract_tests(prefix, &states));
            cur = states[seg.len].clone();
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{SwaRule, Unbounded};
    use fbt_netlist::s27;
    use fbt_sim::seq::simulate_sequence;

    #[test]
    fn owned_tests_roundtrip() {
        let mut t = OwnedTests::default();
        assert!(t.is_empty());
        assert!(matches!(t.as_set(), TestSet::Broadside(&[])));
        t.append(OwnedTests::Broadside(Vec::new()));
        assert_eq!(t.into_broadside().len(), 0);
        let h = OwnedTests::TwoPattern(Vec::new());
        assert!(matches!(h.as_set(), TestSet::TwoPattern(&[])));
        assert_eq!(h.into_two_pattern().len(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn owned_tests_reject_variant_mixing() {
        OwnedTests::default().append(OwnedTests::TwoPattern(Vec::new()));
    }

    #[test]
    fn identity_overlay_matches_plain_simulation() {
        let net = s27();
        let zero = Bits::zeros(3);
        let pis: Vec<Bits> = (0..10)
            .map(|i| Bits::from_bools(&[i % 2 == 0, true, false, i % 3 == 0]))
            .collect();
        let (states, swa) = StateOverlay::Identity.simulate(&net, &zero, &pis);
        let traj = simulate_sequence(&net, &zero, &pis);
        assert_eq!(states, traj.states);
        assert_eq!(swa, traj.swa);
    }

    #[test]
    fn hold_overlay_freezes_masked_ffs_on_hold_cycles() {
        let net = s27();
        let mut mask = Bits::zeros(3);
        mask.set(1, true);
        let pis: Vec<Bits> = (0..8)
            .map(|i| Bits::from_bools(&[i % 2 == 0, true, false, i % 3 == 0]))
            .collect();
        let overlay = StateOverlay::Hold { mask, h: 1 };
        let (states, _) = overlay.simulate(&net, &Bits::from_str01("010"), &pis);
        // h = 1: every even cycle's update holds FF 1.
        for c in (0..pis.len()).step_by(2) {
            assert_eq!(states[c + 1].get(1), states[c].get(1), "held update {c}");
        }
    }

    #[test]
    fn tpg_source_matches_direct_expansion() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let source = TpgSeedSource::for_circuit(&net, &cfg);
        let direct = Tpg::new(source.spec.clone(), 42).sequence(20);
        assert_eq!(source.expand(42, 20), direct);
        // Pure: repeated expansion is identical.
        assert_eq!(source.expand(42, 20), direct);
    }

    #[test]
    fn construct_marks_detected_and_reports_consistent_counts() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let mut engine = GenerationEngine::new(&net, &cfg);
        let n = engine.num_faults();
        let mut detected = vec![false; n];
        let mut rng = Rng::new(cfg.master_seed);
        let zero = Bits::zeros(3);
        let run = engine.construct(
            &SwaRule { bound: 1.0 },
            &StateOverlay::Identity,
            &zero,
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
        assert!(detected.iter().any(|&d| d));
        assert_eq!(run.stats.seeds_kept, run.kept.len());
        assert_eq!(
            run.kept.len(),
            run.sequences
                .iter()
                .map(|s| s.num_segments())
                .sum::<usize>()
        );
        let total_cycles: usize = run.sequences.iter().map(|s| s.total_len()).sum();
        assert_eq!(run.tests_applied, total_cycles / 2);
        // keep_tests off: no cached vectors.
        assert!(run.kept.iter().all(|k| k.tests.is_empty()));
    }

    #[test]
    fn compact_preserves_coverage_of_kept_segments() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let mut engine = GenerationEngine::new(&net, &cfg);
        let mut detected = vec![false; engine.num_faults()];
        let mut rng = Rng::new(cfg.master_seed);
        let zero = Bits::zeros(3);
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
        let mut stats = run.stats.clone();
        let compaction = engine.compact(&run.kept, &mut stats);
        // Compaction never loses coverage relative to the selection pass.
        assert_eq!(compaction.detected, detected);
        assert!(compaction.kept_indices.len() <= run.kept.len());
        assert!(compaction.tests_applied <= run.tests_applied);
    }
}
