//! `ch4-flow`: the Table 4.3/4.4 pipeline (`SWAfunc`, unconstrained
//! generation with compaction, constrained generation, state holding) on
//! `s35932` and `s38584` at Default scale, with `SearchOptions::speculative(8)`.
//!
//! The untraced pass calls the library entry points a user of the paper
//! calls. The traced pass re-drives every speculative round from this file
//! through the public layer calls (TPG expand, multi-lane simulation, the
//! admissibility policy, test extraction, grouped fault simulation,
//! compaction) with a span around each, and must reproduce the untraced
//! pass's `counters_json` and coverage exactly.

use std::collections::VecDeque;
use std::time::Duration;

use fbt_bench::Scale;
use fbt_bist::holding::HoldSet;
use fbt_core::driver::{functional_sequences, swafunc, DrivingBlock};
use fbt_core::engine::{ConstructOptions, KeptSegment};
use fbt_core::{
    generate_constrained, generate_unconstrained, improve_with_holding, AdmissibilityPolicy,
    FunctionalBistConfig, GenerationEngine, GenerationStats, OwnedTests, SearchOptions, SeedSource,
    StateOverlay, SwaRule, TpgSeedSource, Unbounded,
};
use fbt_fault::{
    all_transition_faults, collapse, coverage_percent, FaultSimEngine, FaultSimOptions,
    PackedParallelSim, SimOutcome, TestGroup, TestSet, TransitionFault,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sim::kernel::Kernel;
use fbt_sim::lanes::{extract_lane, LaneSeqSim};
use fbt_sim::Bits;

use crate::report::{nproc, timed};
use crate::trace::Tracer;

/// The workload's circuits.
pub const CIRCUITS: [&str; 2] = ["s35932", "s38584"];

/// The generation config: the Default-scale preset with the paper's master
/// seed and an 8-candidate speculative search on every core.
pub fn config(scale: Scale) -> FunctionalBistConfig {
    FunctionalBistConfig {
        search: SearchOptions::speculative(8),
        ..scale.bist_config()
    }
}

/// What the flow produced for one (circuit, stage) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub circuit: String,
    pub stage: &'static str,
    pub coverage: f64,
    pub counters: String,
}

/// A prepared circuit: the netlist and its collapsed fault list.
pub struct Subject {
    pub name: String,
    pub net: Netlist,
    pub faults: Vec<TransitionFault>,
}

/// Set-up: synthesize the circuits, build their fault lists and lint
/// evidence, and compile their kernels (into the cache when `keep`).
pub fn setup(scale: Scale, names: &[&str], keep: bool) -> Vec<Subject> {
    names
        .iter()
        .map(|name| {
            let net = fbt_bench::circuit(scale, name);
            let faults = collapse(&net, &all_transition_faults(&net));
            std::hint::black_box(fbt_lint::PreflightEvidence::analyze(&net));
            if keep {
                Kernel::for_netlist(&net);
            } else {
                std::hint::black_box(Kernel::build(&net));
            }
            Subject {
                name: name.to_string(),
                net,
                faults,
            }
        })
        .collect()
}

/// One timed operation of the untraced pass.
pub struct Op {
    pub name: String,
    pub wall: Duration,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {:.3}s", self.name, self.wall.as_secs_f64())
    }
}

/// The untraced pass: the library entry points, timed per call, plus the
/// checks that need no re-run (peak SWA within `SWAfunc`).
pub fn flow_pass(
    subjects: &[Subject],
    cfg: &FunctionalBistConfig,
    problems: &mut Vec<String>,
) -> (Vec<Cell>, Vec<Op>) {
    let mut cells = Vec::new();
    let mut ops = Vec::new();
    for s in subjects {
        let net = &s.net;
        let mut op = |stage: &str, wall: Duration| {
            ops.push(Op {
                name: format!("{}/{stage}", s.name),
                wall,
            })
        };
        let (bound, d) = timed(|| swafunc(net, &DrivingBlock::Buffers, cfg));
        op("swafunc", d);
        let (u, d) = timed(|| generate_unconstrained(net, cfg));
        op("unconstrained", d);
        let (c, d) = timed(|| generate_constrained(net, bound, cfg));
        op("constrained", d);
        let (h, d) = timed(|| improve_with_holding(net, bound, cfg, &c));
        op("holding", d);
        if c.peak_swa > bound || h.peak_swa > bound {
            problems.push(format!(
                "{}: peak SWA {} / {} exceeds SWAfunc {bound}",
                s.name, c.peak_swa, h.peak_swa
            ));
        }
        // Compaction keeps coverage: the kept seeds' replayed tests detect
        // exactly the reported faults.
        let tests = u.replay_tests(net, cfg);
        let mut replayed = vec![false; u.faults.len()];
        PackedParallelSim::new(net).simulate(
            TestSet::Broadside(&tests),
            &u.faults,
            &mut replayed,
            &FaultSimOptions::new(),
        );
        if replayed != u.detected {
            problems.push(format!(
                "{}: compacted seeds do not reproduce the coverage",
                s.name
            ));
        }
        for (stage, coverage, stats) in [
            ("unconstrained", u.fault_coverage(), &u.stats),
            ("constrained", c.fault_coverage(), &c.stats),
            ("holding", h.final_coverage(), &h.stats),
        ] {
            cells.push(Cell {
                circuit: s.name.clone(),
                stage,
                coverage,
                counters: stats.counters_json(),
            });
        }
    }
    (cells, ops)
}

/// Layer counters gathered while re-driving (the span times come from the
/// tracer).
#[derive(Debug, Default)]
pub struct Tally {
    pub tpg_cycles: usize,
    pub lane_steps: usize,
    pub lanes_occupied: usize,
    pub prefix_cycles: usize,
    pub extracted_tests: usize,
    pub evals: usize,
    pub seeds_tried: usize,
    pub group_calls: usize,
    pub group_tests: usize,
    pub groups_simulated: usize,
    pub groups_accepting: usize,
    /// Grouped fault-sim busy time at 1 thread and at `nproc` threads, over
    /// the sampled rounds.
    pub sweep_busy_1: Duration,
    pub sweep_busy_n: Duration,
    pub sweep_mismatches: usize,
}

/// Sample every this-many grouped calls for the thread sweep.
const SWEEP_EVERY: usize = 4;

/// One speculative candidate's evaluation (mirrors the engine's).
struct Candidate {
    len: usize,
    tests: OwnedTests,
    newly: Vec<usize>,
    peak_swa: f64,
    next_state: Option<Bits>,
    cycles: usize,
}

fn empty_tests(overlay: &StateOverlay) -> OwnedTests {
    match overlay {
        StateOverlay::Identity => OwnedTests::Broadside(Vec::new()),
        StateOverlay::Hold { .. } => OwnedTests::TwoPattern(Vec::new()),
    }
}

/// The state a re-driven construction run works against.
struct Search<'a> {
    net: &'a Netlist,
    cfg: &'a FunctionalBistConfig,
    fsim: PackedParallelSim<'a>,
    active: Vec<TransitionFault>,
    active_idx: Vec<usize>,
    n_faults: usize,
}

impl<'a> Search<'a> {
    /// The faults worth simulating: the lint pre-flight projection the
    /// engine applies.
    fn new(
        tr: &mut Tracer,
        net: &'a Netlist,
        cfg: &'a FunctionalBistConfig,
        faults: &[TransitionFault],
        lint_preflight: bool,
    ) -> Self {
        let (active, active_idx) = if lint_preflight {
            let evidence = tr.span("lint.preflight", |_| {
                fbt_lint::PreflightEvidence::analyze(net)
            });
            faults
                .iter()
                .enumerate()
                .filter(|(_, f)| !evidence.transition_untestable(f.line))
                .map(|(i, f)| (*f, i))
                .unzip()
        } else {
            (faults.to_vec(), (0..faults.len()).collect())
        };
        let fsim = tr.span("sim.kernel.lookup", |_| PackedParallelSim::new(net));
        Search {
            net,
            cfg,
            fsim,
            active,
            active_idx,
            n_faults: faults.len(),
        }
    }

    /// `GenerationEngine::construct`, re-driven round by round.
    #[allow(clippy::too_many_arguments)]
    fn construct(
        &mut self,
        tr: &mut Tracer,
        tally: &mut Tally,
        source: &TpgSeedSource,
        policy: &dyn AdmissibilityPolicy,
        overlay: &StateOverlay,
        start_state: &Bits,
        rng: &mut Rng,
        detected: &mut [bool],
        opts: &ConstructOptions,
    ) -> (Vec<KeptSegment>, f64, GenerationStats) {
        let cfg = self.cfg;
        let mut queue: VecDeque<u64> = VecDeque::new();
        let mut stats = GenerationStats {
            faults_skipped_lint: self.n_faults - self.active.len(),
            ..GenerationStats::default()
        };
        let mut kept: Vec<KeptSegment> = Vec::new();
        let mut peak_swa = 0.0f64;
        let mut attempt_failures = 0usize;
        let mut seeds_tried = 0usize;
        'run: while attempt_failures < opts.q_limit && seeds_tried < cfg.max_seeds {
            let mut cur_state = start_state.clone();
            let mut segments = 0usize;
            let mut seed_failures = 0usize;
            'segment: while seed_failures < opts.r_limit && seeds_tried < cfg.max_seeds {
                let round = tr.enter("core.round");
                let mut batch = Vec::with_capacity(cfg.search.batch);
                while batch.len() < cfg.search.batch {
                    batch.push(queue.pop_front().unwrap_or_else(|| rng.next_u64()));
                }
                let evals = self.round(
                    tr, tally, source, policy, overlay, &batch, &cur_state, detected,
                );
                stats.evals += evals.len();
                stats.sim_cycles += evals.iter().map(|e| e.cycles).sum::<usize>();
                let n_groups = evals.iter().filter(|e| e.len >= 2).count();
                stats.candidate_groups += n_groups;
                stats.fsim_calls += usize::from(n_groups > 0);
                let mut commit = None;
                for (k, cand) in evals.into_iter().enumerate() {
                    if seed_failures >= opts.r_limit || seeds_tried >= cfg.max_seeds {
                        for &s in batch[k..].iter().rev() {
                            queue.push_front(s);
                        }
                        commit = Some(false);
                        break;
                    }
                    seeds_tried += 1;
                    stats.seeds_tried += 1;
                    if cand.newly.is_empty() {
                        seed_failures += 1;
                        continue;
                    }
                    for &i in &cand.newly {
                        detected[i] = true;
                    }
                    stats.seeds_kept += 1;
                    peak_swa = peak_swa.max(cand.peak_swa);
                    if opts.chain_state {
                        cur_state = cand.next_state.expect("accepted candidates carry a state");
                    }
                    segments += 1;
                    kept.push(KeptSegment {
                        seed: batch[k],
                        len: cand.len,
                        tests: if opts.keep_tests {
                            cand.tests
                        } else {
                            empty_tests(overlay)
                        },
                        peak_swa: cand.peak_swa,
                    });
                    seed_failures = 0;
                    for &s in batch[k + 1..].iter().rev() {
                        queue.push_front(s);
                    }
                    commit = Some(true);
                    break;
                }
                tr.exit(round);
                if commit == Some(false) {
                    break 'segment;
                }
            }
            if opts.single_sequence {
                break 'run;
            }
            if segments == 0 {
                attempt_failures += 1;
            } else {
                attempt_failures = 0;
            }
        }
        stats.wasted_evals = stats.evals - stats.seeds_tried;
        tally.evals += stats.evals;
        tally.seeds_tried += stats.seeds_tried;
        (kept, peak_swa, stats)
    }

    /// One candidate-packed speculative round (the engine's `packed_round`).
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        tr: &mut Tracer,
        tally: &mut Tally,
        source: &TpgSeedSource,
        policy: &dyn AdmissibilityPolicy,
        overlay: &StateOverlay,
        seeds: &[u64],
        start: &Bits,
        snapshot: &[bool],
    ) -> Vec<Candidate> {
        let net = self.net;
        let seq_len = self.cfg.seq_len;
        let probe = policy.probe_cycles(seq_len);
        let mut cands: Vec<Candidate> = Vec::with_capacity(seeds.len());
        for chunk in seeds.chunks(64) {
            let lanes = chunk.len();
            let pis: Vec<Vec<Bits>> = tr.span("bist.tpg", |_| {
                chunk.iter().map(|&s| source.expand(s, seq_len)).collect()
            });
            tally.tpg_cycles += lanes * seq_len;
            let (state_words, sw, swa) = tr.span("sim.lanes", |_| {
                let mut sim = LaneSeqSim::new(net, lanes);
                sim.broadcast_state(start);
                let sw = sim.state_words().len();
                let mut state_words: Vec<u64> = Vec::with_capacity(seq_len * sw);
                let mut swa: Vec<Vec<Option<f64>>> = vec![Vec::with_capacity(seq_len); lanes];
                // `c` indexes the inner (cycle) axis of `pis` inside the
                // closure; there is no outer slice to iterate.
                #[allow(clippy::needless_range_loop)]
                for c in 0..seq_len {
                    sim.step_with(|l| &pis[l][c], overlay.hold_mask_at(c));
                    state_words.extend_from_slice(sim.state_words());
                    match sim.swa() {
                        Some(s) => swa.iter_mut().zip(s).for_each(|(t, &v)| t.push(Some(v))),
                        None => swa.iter_mut().for_each(|t| t.push(None)),
                    }
                }
                (state_words, sw, swa)
            });
            tally.lane_steps += seq_len;
            tally.lanes_occupied += lanes * seq_len;
            let lens: Vec<usize> = tr.span("core.policy", |_| {
                swa.iter()
                    .map(|t| {
                        policy
                            .admissible_prefix_from_trace(t, seq_len)
                            .expect("trace-based policy")
                    })
                    .collect()
            });
            tally.prefix_cycles += lens.iter().sum::<usize>();
            tr.span("core.extract", |_| {
                for (l, seed_pis) in pis.iter().enumerate() {
                    let len = lens[l];
                    if len < 2 {
                        cands.push(Candidate {
                            len,
                            tests: empty_tests(overlay),
                            newly: Vec::new(),
                            peak_swa: 0.0,
                            next_state: None,
                            cycles: probe,
                        });
                        continue;
                    }
                    let mut states: Vec<Bits> = Vec::with_capacity(len + 1);
                    states.push(start.clone());
                    for c in 0..len {
                        states.push(extract_lane(&state_words[c * sw..(c + 1) * sw], l));
                    }
                    let tests = overlay.extract_tests(&seed_pis[..len], &states);
                    tally.extracted_tests += tests.len();
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
            });
        }

        let groups: Vec<TestGroup<'_>> = cands
            .iter()
            .filter(|c| c.len >= 2)
            .map(|c| TestGroup::new(c.tests.as_set()))
            .collect();
        if groups.is_empty() {
            return cands;
        }
        let base: Vec<bool> = self.active_idx.iter().map(|&i| snapshot[i]).collect();
        let opts = FaultSimOptions::new()
            .threads(self.cfg.search.threads)
            .until_first_accept(true);
        let fsim = &mut self.fsim;
        let active = &self.active;
        let outs = tr.span("fault.groups", |_| {
            fsim.simulate_groups(&groups, active, &base, &opts)
        });
        tally.group_calls += 1;
        tally.group_tests += groups.iter().map(|g| g.tests.len()).sum::<usize>();
        tally.groups_simulated += outs.iter().filter(|o| o.complete).count();
        tally.groups_accepting += outs
            .iter()
            .filter(|o| o.complete && !o.newly.is_empty())
            .count();
        if tally.group_calls.is_multiple_of(SWEEP_EVERY) {
            // Thread sweep: the same call at 1 and at nproc threads,
            // alternating which runs first, under a span of its own that the
            // round metrics leave out.
            let sweep = tr.enter("fault.sweep");
            let at = |fsim: &mut PackedParallelSim<'_>, threads: usize| {
                timed(|| {
                    fsim.simulate_groups(&groups, active, &base, &opts.clone().threads(threads))
                })
            };
            let first_one = (tally.group_calls / SWEEP_EVERY).is_multiple_of(2);
            let ((o1, d1), (on, dn)) = if first_one {
                let a = at(fsim, 1);
                (a, at(fsim, nproc()))
            } else {
                let b = at(fsim, nproc());
                (at(fsim, 1), b)
            };
            tally.sweep_busy_1 += d1;
            tally.sweep_busy_n += dn;
            let same = |o: &[SimOutcome]| {
                o.iter()
                    .zip(&outs)
                    .all(|(a, b)| a.complete == b.complete && (!a.complete || a.newly == b.newly))
            };
            if !same(&o1) || !same(&on) {
                tally.sweep_mismatches += 1;
            }
            tr.exit(sweep);
        }
        drop(groups);
        let mut it = outs.into_iter();
        for cand in cands.iter_mut().filter(|c| c.len >= 2) {
            let out = it.next().expect("one outcome per group");
            cand.newly = out.newly.iter().map(|&j| self.active_idx[j]).collect();
        }
        cands
    }
}

/// The re-driven pass: every library call of [`flow_pass`] rebuilt from
/// layer calls under spans. Returns the same cells.
pub fn redrive_pass(
    tr: &mut Tracer,
    tally: &mut Tally,
    subjects: &[Subject],
    cfg: &FunctionalBistConfig,
    problems: &mut Vec<String>,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for s in subjects {
        let net = &s.net;
        let zero = Bits::zeros(net.num_dffs());
        let source = TpgSeedSource::for_circuit(net, cfg);

        tr.next_run();
        let bound = tr.span("core.swafunc", |tr| {
            let seqs = tr.span("bist.tpg", |_| {
                functional_sequences(net, &DrivingBlock::Buffers, cfg)
            });
            tally.tpg_cycles += seqs.iter().map(Vec::len).sum::<usize>();
            tr.span("sim.seq", |_| {
                fbt_sim::activity::peak_activity(net, &zero, &seqs)
            })
        });

        // Unconstrained: single sequence from reset, kept tests, compaction.
        tr.next_run();
        let (u_detected, u_stats) = tr.span("core.unconstrained", |tr| {
            let mut engine = tr.span("core.engine", |_| GenerationEngine::new(net, cfg));
            let mut search = Search::new(tr, net, cfg, &s.faults, cfg.lint_preflight);
            let mut detected = vec![false; s.faults.len()];
            let (kept, _, mut stats) = search.construct(
                tr,
                tally,
                &source,
                &Unbounded,
                &StateOverlay::Identity,
                &zero,
                &mut Rng::new(cfg.master_seed),
                &mut detected,
                &ConstructOptions {
                    r_limit: cfg.useless_seed_limit,
                    q_limit: 1,
                    single_sequence: true,
                    chain_state: false,
                    keep_tests: true,
                },
            );
            let compaction = tr.span("core.compact", |_| engine.compact(&kept, &mut stats));
            if compaction.detected != detected {
                problems.push(format!("{}: compaction lost coverage", s.name));
            }
            (compaction.detected, stats)
        });
        cells.push(Cell {
            circuit: s.name.clone(),
            stage: "unconstrained",
            coverage: coverage_percent(&u_detected),
            counters: u_stats.counters_json(),
        });

        // Constrained: multi-segment sequences under the SWAfunc rule.
        tr.next_run();
        let rule = SwaRule { bound };
        let (c_detected, c_peak, c_stats) = tr.span("core.constrained", |tr| {
            let mut search = Search::new(tr, net, cfg, &s.faults, cfg.lint_preflight);
            let mut detected = vec![false; s.faults.len()];
            let (_, peak, stats) = search.construct(
                tr,
                tally,
                &source,
                &rule,
                &StateOverlay::Identity,
                &zero,
                &mut Rng::new(cfg.master_seed),
                &mut detected,
                &ConstructOptions {
                    r_limit: cfg.segment_failure_limit,
                    q_limit: cfg.attempt_failure_limit,
                    single_sequence: false,
                    chain_state: true,
                    keep_tests: false,
                },
            );
            (detected, peak, stats)
        });
        cells.push(Cell {
            circuit: s.name.clone(),
            stage: "constrained",
            coverage: coverage_percent(&c_detected),
            counters: c_stats.counters_json(),
        });

        // State holding: the Fig. 4.12 set-selection tree, probes, commits.
        tr.next_run();
        let (h_detected, h_peak, h_stats) = tr.span("core.holding", |tr| {
            holding(tr, tally, net, cfg, &s.faults, &source, bound, &c_detected)
        });
        if c_peak > bound || h_peak > bound {
            problems.push(format!("{}: re-driven peak SWA exceeds SWAfunc", s.name));
        }
        cells.push(Cell {
            circuit: s.name.clone(),
            stage: "holding",
            coverage: coverage_percent(&h_detected),
            counters: h_stats.counters_json(),
        });
    }
    cells
}

/// `improve_with_holding`, re-driven.
#[allow(clippy::too_many_arguments)]
fn holding(
    tr: &mut Tracer,
    tally: &mut Tally,
    net: &Netlist,
    cfg: &FunctionalBistConfig,
    faults: &[TransitionFault],
    source: &TpgSeedSource,
    bound: f64,
    base: &[bool],
) -> (Vec<bool>, f64, GenerationStats) {
    // The holding stage simulates the full fault list (no lint projection).
    let mut search = Search::new(tr, net, cfg, faults, false);
    let rule = SwaRule { bound };
    let zero = Bits::zeros(net.num_dffs());
    let n_ff = net.num_dffs();
    let mut stats = GenerationStats::default();
    let mut rng = Rng::new(cfg.master_seed ^ 0x401D);
    let height = cfg.hold_tree_height as usize;
    let n_nodes = (1usize << (height + 1)) - 1;
    let n_internal = (1usize << height) - 1;
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    sets[0] = (0..n_ff).collect();
    for i in 0..n_internal {
        if sets[i].len() < 2 {
            continue;
        }
        let mut shuffled = sets[i].clone();
        rng.shuffle(&mut shuffled);
        let (a, b) = shuffled.split_at(shuffled.len() / 2);
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        a.sort_unstable();
        b.sort_unstable();
        sets[2 * i + 1] = a;
        sets[2 * i + 2] = b;
    }
    let mut run = |search: &mut Search<'_>,
                   tr: &mut Tracer,
                   set: &[usize],
                   rng: &mut Rng,
                   detected: &mut [bool],
                   r_limit: usize,
                   q_limit: usize| {
        let overlay = StateOverlay::Hold {
            mask: HoldSet::new(set.to_vec()).mask(n_ff),
            h: cfg.hold_period_log2,
        };
        search.construct(
            tr,
            tally,
            source,
            &rule,
            &overlay,
            &zero,
            rng,
            detected,
            &ConstructOptions {
                r_limit,
                q_limit,
                single_sequence: false,
                chain_state: true,
                keep_tests: false,
            },
        )
    };
    let mut det = vec![0usize; n_nodes];
    for i in 0..n_nodes {
        if sets[i].is_empty() {
            continue;
        }
        let mut scratch = base.to_vec();
        let before = scratch.iter().filter(|&&d| d).count();
        let mut probe_rng = Rng::new(cfg.master_seed ^ (0xD37 + i as u64));
        let (_, _, s) = run(
            &mut search,
            tr,
            &sets[i],
            &mut probe_rng,
            &mut scratch,
            1,
            1,
        );
        stats.absorb(&s);
        det[i] = scratch.iter().filter(|&&d| d).count() - before;
    }
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
    let mut detected = base.to_vec();
    let mut peak = 0.0f64;
    for subset in std::mem::take(&mut selected[0]) {
        let before = detected.iter().filter(|&&d| d).count();
        let mut commit_rng = rng.fork();
        let (_, p, s) = run(
            &mut search,
            tr,
            &subset,
            &mut commit_rng,
            &mut detected,
            cfg.segment_failure_limit,
            cfg.attempt_failure_limit,
        );
        stats.absorb(&s);
        if detected.iter().filter(|&&d| d).count() > before {
            peak = peak.max(p);
        }
    }
    (detected, peak, stats)
}
