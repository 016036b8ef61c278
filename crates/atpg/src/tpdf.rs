//! The deterministic test generation pipeline for transition path delay
//! faults (paper §2.3): five sub-procedures of increasing power, so that the
//! expensive complete branch-and-bound only sees the faults nothing cheaper
//! could decide.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use fbt_fault::{
    BroadsideTest, FaultSimEngine, PackedParallelSim, TransitionFault, TransitionPathDelayFault,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::{GateKind, Netlist};
use fbt_sim::Trit;

use crate::frames::{var_parts, FaultStatus, Frame, TwoFrame};
use crate::necessary::{tpdf_analysis, Analysis, VarAssign};
use crate::podem::{AtpgOutcome, Podem, PodemConfig};
use crate::sat_backend::SatBackend;
use crate::TestCube;

/// Which sub-procedure decided a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubProcedure {
    /// Static lint pre-flight: transition faults on structurally constant
    /// or combinationally unobservable lines are untestable by
    /// construction ([`fbt_lint::PreflightEvidence`]), so the path faults
    /// containing them are decided before any search runs.
    Preflight,
    /// §2.3.2 preprocessing (includes undetectable transition faults found
    /// during §2.3.1 test generation).
    Preprocess,
    /// §2.3.3 fault simulation of the transition-fault tests.
    FaultSim,
    /// §2.3.4 dynamic-compaction heuristic.
    Heuristic,
    /// §2.3.5 complete branch-and-bound.
    BranchBound,
    /// SAT fallback: complete time-frame-expansion search resolving faults
    /// the branch-and-bound aborted on, with UNSAT untestability proofs.
    SatSolver,
}

/// The pipeline's verdict for one transition path delay fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpdfStatus {
    /// Detected, with the deciding sub-procedure and a test.
    Detected(SubProcedure, TestCube),
    /// Proven undetectable by the named sub-procedure.
    Undetectable(SubProcedure),
    /// Undecided within the limits.
    Aborted,
}

impl TpdfStatus {
    /// Whether a test was found.
    pub fn is_detected(&self) -> bool {
        matches!(self, TpdfStatus::Detected(..))
    }

    /// Whether proven undetectable.
    pub fn is_undetectable(&self) -> bool {
        matches!(self, TpdfStatus::Undetectable(_))
    }
}

/// Pipeline limits (paper §2.4: 1 min heuristic, 2 min branch-and-bound,
/// 128 backtracks for transition-fault test generation).
#[derive(Debug, Clone)]
pub struct TpdfConfig {
    /// Limits for transition-fault PODEM (§2.3.1 and inside the heuristic).
    pub tf_podem: PodemConfig,
    /// Wall-clock limit per fault in the heuristic.
    pub heuristic_time_limit: Duration,
    /// Limits for the complete branch-and-bound per fault.
    pub bnb: PodemConfig,
    /// Random tie-break seed.
    pub seed: u64,
}

impl Default for TpdfConfig {
    fn default() -> Self {
        TpdfConfig {
            tf_podem: PodemConfig {
                backtrack_limit: 128,
                time_limit: Duration::from_secs(5),
            },
            heuristic_time_limit: Duration::from_secs(2),
            bnb: PodemConfig {
                backtrack_limit: 4096,
                time_limit: Duration::from_secs(4),
            },
            seed: 0x7BDF,
        }
    }
}

/// Per-sub-procedure accounting for Tables 2.3–2.6.
#[derive(Debug, Clone, Default)]
pub struct SubProcedureStats {
    /// Faults decided *detected* by each sub-procedure.
    pub detected: HashMap<SubProcedure, usize>,
    /// Faults decided *undetectable* by each sub-procedure.
    pub undetectable: HashMap<SubProcedure, usize>,
    /// Wall-clock time of transition-fault test generation (§2.3.1).
    pub tf_generation_time: Duration,
    /// Wall-clock time per sub-procedure.
    pub times: HashMap<SubProcedure, Duration>,
}

/// The pipeline's full report.
#[derive(Debug, Clone)]
pub struct TpdfReport {
    /// Per-fault verdicts, aligned with the input fault list.
    pub statuses: Vec<TpdfStatus>,
    /// Accounting.
    pub stats: SubProcedureStats,
}

impl TpdfReport {
    /// Number of detected faults.
    pub fn num_detected(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_detected()).count()
    }

    /// Number of faults proven undetectable.
    pub fn num_undetectable(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_undetectable()).count()
    }

    /// Number of aborted faults.
    pub fn num_aborted(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s, TpdfStatus::Aborted))
            .count()
    }
}

/// Build a base cube from input necessary assignments (frame-2 state-variable
/// entries are implied under broadside operation and are skipped).
pub fn cube_from_inputs(net: &Netlist, assigns: &[VarAssign]) -> TestCube {
    let n = net.num_nodes();
    let mut cube = TestCube::unspecified(net);
    for &(var, val) in assigns {
        let (frame, node) = var_parts(n, var);
        let t = Trit::from_bool(val);
        match (frame, net.node(node).kind()) {
            (Frame::First, GateKind::Input) => {
                let i = net.inputs().iter().position(|&p| p == node).expect("PI");
                cube.v1[i] = t;
            }
            (Frame::Second, GateKind::Input) => {
                let i = net.inputs().iter().position(|&p| p == node).expect("PI");
                cube.v2[i] = t;
            }
            (Frame::First, GateKind::Dff) => {
                let i = net.dffs().iter().position(|&d| d == node).expect("FF");
                cube.s1[i] = t;
            }
            _ => {}
        }
    }
    cube
}

/// Which transition faults of `trs` are already (definitely) detected under
/// `cube`?
fn detected_under(
    engine: &mut TwoFrame<'_>,
    cube: &TestCube,
    trs: &[TransitionFault],
) -> Vec<bool> {
    engine.load_cube(cube);
    engine.forward();
    trs.iter()
        .map(|t| matches!(engine.fault_status(t), FaultStatus::Detected))
        .collect()
}

/// Run the full pipeline over a fault list.
///
/// # Example
///
/// ```
/// use fbt_atpg::tpdf::{run_pipeline, TpdfConfig};
/// use fbt_fault::path::{enumerate_paths, tpdf_list};
///
/// let net = fbt_netlist::s27();
/// let faults = tpdf_list(&enumerate_paths(&net, usize::MAX));
/// let report = run_pipeline(&net, &faults, &TpdfConfig::default());
/// assert_eq!(report.statuses.len(), 56);
/// assert_eq!(report.num_aborted(), 0);
/// ```
pub fn run_pipeline(
    net: &Netlist,
    faults: &[TransitionPathDelayFault],
    cfg: &TpdfConfig,
) -> TpdfReport {
    let mut stats = SubProcedureStats::default();
    let mut statuses: Vec<Option<TpdfStatus>> = vec![None; faults.len()];
    let mut rng = Rng::new(cfg.seed);

    let mut unique_tfs: Vec<TransitionFault> = Vec::new();
    let mut tf_index: HashMap<TransitionFault, usize> = HashMap::new();
    for f in faults {
        for t in f.transition_faults(net) {
            tf_index.entry(t).or_insert_with(|| {
                unique_tfs.push(t);
                unique_tfs.len() - 1
            });
        }
    }

    // ---- Sub-procedure 0: static lint pre-flight. A transition fault on a
    // structurally constant line can never launch, and one on a
    // combinationally unobservable line can never propagate; a path fault
    // containing such a transition fault is undetectable without search.
    let mut undetectable_tfs: HashSet<TransitionFault> = HashSet::new();
    let t0 = Instant::now();
    let evidence = fbt_lint::PreflightEvidence::analyze(net);
    for t in &unique_tfs {
        if evidence.transition_untestable(t.line) {
            undetectable_tfs.insert(*t);
        }
    }
    let mut undet_pre = 0usize;
    if !undetectable_tfs.is_empty() {
        for (i, f) in faults.iter().enumerate() {
            if f.transition_faults(net)
                .iter()
                .any(|t| undetectable_tfs.contains(t))
            {
                statuses[i] = Some(TpdfStatus::Undetectable(SubProcedure::Preflight));
                undet_pre += 1;
            }
        }
    }
    stats
        .undetectable
        .insert(SubProcedure::Preflight, undet_pre);
    stats.times.insert(SubProcedure::Preflight, t0.elapsed());

    // ---- Sub-procedure 1: deterministic test generation for the unique
    // transition faults along the paths (§2.3.1). Pre-flight-decided faults
    // skip PODEM entirely.
    let t0 = Instant::now();
    let mut podem = Podem::new(net, cfg.tf_podem);
    let mut tf_tests: Vec<BroadsideTest> = Vec::new();
    for t in &unique_tfs {
        if undetectable_tfs.contains(t) {
            continue;
        }
        match podem.generate(t) {
            AtpgOutcome::Test(cube) => tf_tests.push(cube.fill_random(&mut rng)),
            AtpgOutcome::Untestable => {
                undetectable_tfs.insert(*t);
            }
            AtpgOutcome::Aborted => {}
        }
    }
    stats.tf_generation_time = t0.elapsed();

    // ---- Sub-procedure 2: preprocessing (§2.3.2).
    let t0 = Instant::now();
    let mut necessary: Vec<Option<Vec<VarAssign>>> = vec![None; faults.len()];
    let mut undet_prep = 0usize;
    for (i, f) in faults.iter().enumerate() {
        if statuses[i].is_some() {
            continue;
        }
        match tpdf_analysis(net, f, &undetectable_tfs) {
            Analysis::Undetectable => {
                statuses[i] = Some(TpdfStatus::Undetectable(SubProcedure::Preprocess));
                undet_prep += 1;
            }
            Analysis::Potential(sets) => {
                necessary[i] = Some(sets.input_necessary);
            }
        }
    }
    stats
        .undetectable
        .insert(SubProcedure::Preprocess, undet_prep);
    stats.times.insert(SubProcedure::Preprocess, t0.elapsed());

    // ---- Sub-procedure 3: fault simulation of the transition-fault tests
    // under the path faults (§2.3.3): a path fault is detected by a test iff
    // the test detects every transition fault along its path.
    let t0 = Instant::now();
    let mut fsim = PackedParallelSim::new(net);
    let matrix = fsim.detection_matrix(&tf_tests, &unique_tfs);
    let words = matrix.words_per_row();
    let mut det_fsim = 0usize;
    for (i, f) in faults.iter().enumerate() {
        if statuses[i].is_some() {
            continue;
        }
        let trs = f.transition_faults(net);
        'word: for w in 0..words {
            let mut all = !0u64;
            for t in &trs {
                all &= matrix.row(tf_index[t])[w];
                if all == 0 {
                    continue 'word;
                }
            }
            // Some test in this word detects every transition fault.
            let lane = all.trailing_zeros() as usize;
            let test = &tf_tests[w * 64 + lane];
            let cube = TestCube {
                s1: test.scan_in.iter().map(Trit::from_bool).collect(),
                v1: test.v1.iter().map(Trit::from_bool).collect(),
                v2: test.v2.iter().map(Trit::from_bool).collect(),
            };
            statuses[i] = Some(TpdfStatus::Detected(SubProcedure::FaultSim, cube));
            det_fsim += 1;
            break;
        }
    }
    stats.detected.insert(SubProcedure::FaultSim, det_fsim);
    stats.times.insert(SubProcedure::FaultSim, t0.elapsed());

    // ---- Sub-procedure 4: dynamic-compaction heuristic (§2.3.4, Fig. 2.2).
    let t0 = Instant::now();
    let mut engine = TwoFrame::new(net);
    let mut failure_counts: HashMap<TransitionFault, usize> = HashMap::new();
    let mut det_heur = 0usize;
    for (i, f) in faults.iter().enumerate() {
        if statuses[i].is_some() {
            continue;
        }
        let base = cube_from_inputs(net, necessary[i].as_deref().unwrap_or(&[]));
        if let Some(cube) = heuristic(
            net,
            &mut engine,
            f,
            &base,
            cfg,
            &mut failure_counts,
            &mut rng,
        ) {
            statuses[i] = Some(TpdfStatus::Detected(SubProcedure::Heuristic, cube));
            det_heur += 1;
        }
    }
    stats.detected.insert(SubProcedure::Heuristic, det_heur);
    stats.times.insert(SubProcedure::Heuristic, t0.elapsed());

    // ---- Sub-procedure 5: complete branch-and-bound (§2.3.5, Fig. 2.3).
    let t0 = Instant::now();
    let mut bnb = Podem::new(net, cfg.bnb);
    let mut det_bnb = 0usize;
    let mut undet_bnb = 0usize;
    for (i, f) in faults.iter().enumerate() {
        if statuses[i].is_some() {
            continue;
        }
        let base = cube_from_inputs(net, necessary[i].as_deref().unwrap_or(&[]));
        // Target the historically hardest transition faults first.
        let mut trs = f.transition_faults(net);
        trs.sort_by_key(|t| std::cmp::Reverse(failure_counts.get(t).copied().unwrap_or(0)));
        statuses[i] = Some(match bnb.generate_multi(&base, &trs) {
            AtpgOutcome::Test(cube) => {
                det_bnb += 1;
                TpdfStatus::Detected(SubProcedure::BranchBound, cube)
            }
            AtpgOutcome::Untestable => {
                undet_bnb += 1;
                TpdfStatus::Undetectable(SubProcedure::BranchBound)
            }
            AtpgOutcome::Aborted => TpdfStatus::Aborted,
        });
    }
    stats.detected.insert(SubProcedure::BranchBound, det_bnb);
    stats
        .undetectable
        .insert(SubProcedure::BranchBound, undet_bnb);
    stats.times.insert(SubProcedure::BranchBound, t0.elapsed());

    // ---- SAT fallback: complete time-frame-expansion search for whatever
    // the branch-and-bound aborted on. Every verdict is definite — a model
    // becomes a test, UNSAT is an untestability proof.
    let t0 = Instant::now();
    let mut sat = SatBackend::new(net);
    let mut det_sat = 0usize;
    let mut undet_sat = 0usize;
    for (i, f) in faults.iter().enumerate() {
        if !matches!(statuses[i], Some(TpdfStatus::Aborted)) {
            continue;
        }
        statuses[i] = Some(match sat.generate_tpdf(f) {
            AtpgOutcome::Test(cube) => {
                det_sat += 1;
                TpdfStatus::Detected(SubProcedure::SatSolver, cube)
            }
            AtpgOutcome::Untestable => {
                undet_sat += 1;
                TpdfStatus::Undetectable(SubProcedure::SatSolver)
            }
            AtpgOutcome::Aborted => TpdfStatus::Aborted,
        });
    }
    stats.detected.insert(SubProcedure::SatSolver, det_sat);
    stats
        .undetectable
        .insert(SubProcedure::SatSolver, undet_sat);
    stats.times.insert(SubProcedure::SatSolver, t0.elapsed());

    TpdfReport {
        statuses: statuses.into_iter().map(Option::unwrap).collect(),
        stats,
    }
}

/// The Fig. 2.2 heuristic for one fault: repeatedly pick the hardest
/// undetected, unused transition fault as the primary target, then extend
/// the test over the remaining faults without backtracking across them.
fn heuristic(
    net: &Netlist,
    engine: &mut TwoFrame<'_>,
    fault: &TransitionPathDelayFault,
    base: &TestCube,
    cfg: &TpdfConfig,
    failure_counts: &mut HashMap<TransitionFault, usize>,
    rng: &mut Rng,
) -> Option<TestCube> {
    let deadline = Instant::now() + cfg.heuristic_time_limit;
    let trs = fault.transition_faults(net);
    let mut used: HashSet<TransitionFault> = HashSet::new();
    let mut podem = Podem::new(net, cfg.tf_podem);

    while Instant::now() < deadline {
        // Primary target: hardest (highest failures) unused fault; random
        // tie-break.
        let already = detected_under(engine, base, &trs);
        let candidates: Vec<&TransitionFault> = trs
            .iter()
            .zip(&already)
            .filter(|(t, det)| !**det && !used.contains(*t))
            .map(|(t, _)| t)
            .collect();
        let primary = match candidates.as_slice() {
            [] => return None, // every fault used (or already detected alone)
            cands => {
                let maxf = cands
                    .iter()
                    .map(|t| failure_counts.get(t).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                let top: Vec<&&TransitionFault> = cands
                    .iter()
                    .filter(|t| failure_counts.get(**t).copied().unwrap_or(0) == maxf)
                    .collect();
                **top[rng.below(top.len())]
            }
        };
        let mut cube = match podem.generate_from(base, &primary) {
            AtpgOutcome::Test(c) => c,
            _ => return None, // primary unreachable even alone: give up here
        };

        // Secondary targets: remaining faults, hardest first.
        let mut first_secondary = true;
        loop {
            if Instant::now() >= deadline {
                return None;
            }
            let det = detected_under(engine, &cube, &trs);
            if det.iter().all(|&d| d) {
                return Some(cube);
            }
            let remaining: Vec<&TransitionFault> = trs
                .iter()
                .zip(&det)
                .filter(|(_, d)| !**d)
                .map(|(t, _)| t)
                .collect();
            let maxf = remaining
                .iter()
                .map(|t| failure_counts.get(t).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let top: Vec<&&TransitionFault> = remaining
                .iter()
                .filter(|t| failure_counts.get(**t).copied().unwrap_or(0) == maxf)
                .collect();
            let secondary = **top[rng.below(top.len())];
            match podem.generate_from(&cube, &secondary) {
                AtpgOutcome::Test(extended) => {
                    cube = extended;
                    first_secondary = false;
                }
                _ => {
                    *failure_counts.entry(secondary).or_insert(0) += 1;
                    if first_secondary {
                        // The primary's detection blocks this one: mark the
                        // primary used, discard, restart.
                        used.insert(primary);
                    }
                    // Either way this round cannot succeed; restart with the
                    // updated failure statistics.
                    break;
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_fault::path::{enumerate_paths, tpdf_list};
    use fbt_netlist::s27;

    fn quick_cfg() -> TpdfConfig {
        TpdfConfig {
            tf_podem: PodemConfig {
                backtrack_limit: 2000,
                time_limit: Duration::from_secs(5),
            },
            heuristic_time_limit: Duration::from_millis(300),
            bnb: PodemConfig {
                backtrack_limit: 100_000,
                time_limit: Duration::from_secs(10),
            },
            seed: 7,
        }
    }

    #[test]
    fn s27_fault_totals() {
        // Table 2.1: s27 has 56 transition path delay faults (28 paths).
        // The paper reports 25 detected / 31 undetectable; exhaustive search
        // under the Chapter-1 detection semantics yields 23 / 33 (see the
        // `exhaustive_s27` integration test), which is what the pipeline
        // must reproduce with zero aborts.
        let net = s27();
        let paths = enumerate_paths(&net, usize::MAX);
        let faults = tpdf_list(&paths);
        assert_eq!(faults.len(), 56);
        let report = run_pipeline(&net, &faults, &quick_cfg());
        assert_eq!(report.num_aborted(), 0, "nothing should abort on s27");
        assert_eq!(
            (report.num_detected(), report.num_undetectable()),
            (23, 33),
            "exhaustively verified totals for s27"
        );
    }

    #[test]
    fn detected_faults_have_working_tests() {
        let net = s27();
        let faults = tpdf_list(&enumerate_paths(&net, usize::MAX));
        let report = run_pipeline(&net, &faults, &quick_cfg());
        let mut engine = TwoFrame::new(&net);
        for (f, s) in faults.iter().zip(&report.statuses) {
            if let TpdfStatus::Detected(_, cube) = s {
                let trs = f.transition_faults(&net);
                let det = detected_under(&mut engine, cube, &trs);
                assert!(
                    det.iter().all(|&d| d),
                    "test for {} does not detect all its transition faults",
                    f.path.display(&net)
                );
            }
        }
    }

    #[test]
    fn subprocedure_counts_sum_up() {
        let net = s27();
        let faults = tpdf_list(&enumerate_paths(&net, usize::MAX));
        let report = run_pipeline(&net, &faults, &quick_cfg());
        let det_sum: usize = report.stats.detected.values().sum();
        let undet_sum: usize = report.stats.undetectable.values().sum();
        assert_eq!(det_sum, report.num_detected());
        assert_eq!(undet_sum, report.num_undetectable());
    }

    #[test]
    fn preflight_decides_constant_line_faults() {
        // Paths through a structurally constant gate are untestable; the
        // pre-flight must decide them without search. The circuit is small
        // enough to know every verdict: a fault is undetectable exactly when
        // its path runs through k0, and every other fault is detected.
        let mut b = fbt_netlist::NetlistBuilder::new("pf");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate(GateKind::Not, "na", &["a"]).unwrap();
        b.gate(GateKind::And, "k0", &["a", "na"]).unwrap(); // constant 0
        b.gate(GateKind::Or, "y", &["k0", "c"]).unwrap();
        b.output("y").unwrap();
        let net = b.finish().unwrap();

        let faults = tpdf_list(&enumerate_paths(&net, usize::MAX));
        let report = run_pipeline(&net, &faults, &quick_cfg());
        let decided = report
            .stats
            .undetectable
            .get(&SubProcedure::Preflight)
            .copied()
            .unwrap_or(0);
        assert!(decided >= 1, "paths through k0 must be decided up front");

        let k0 = net.find("k0").unwrap();
        for (f, status) in faults.iter().zip(&report.statuses) {
            let through_k0 = f.path.nodes().contains(&k0);
            assert_eq!(
                status.is_undetectable(),
                through_k0,
                "{}",
                f.path.display(&net)
            );
            assert_eq!(
                status.is_detected(),
                !through_k0,
                "{}",
                f.path.display(&net)
            );
        }
    }

    #[test]
    fn pipeline_deterministic() {
        let net = s27();
        let faults = tpdf_list(&enumerate_paths(&net, usize::MAX));
        let a = run_pipeline(&net, &faults, &quick_cfg());
        let b = run_pipeline(&net, &faults, &quick_cfg());
        for (x, y) in a.statuses.iter().zip(&b.statuses) {
            assert_eq!(
                std::mem::discriminant(x),
                std::mem::discriminant(y),
                "verdicts differ between runs"
            );
        }
    }
}
