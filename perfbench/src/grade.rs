//! `fault-grade`: grade the functional broadside tests of 64 seeded on-chip
//! TPG sequences of 600 cycles each (19,200 tests per circuit) on `s35932`
//! and `s38584` at Default scale, in three passes: coverage with fault
//! dropping, the n-detection profile up to 10, and full detection counts
//! without dropping. The fault-simulation layer does almost all the work
//! in a few large calls; multi-lane simulation is not used at all.

use std::time::Duration;

use fbt_bench::Scale;
use fbt_core::extract::functional_tests;
use fbt_core::{SeedSource, TpgSeedSource};
use fbt_fault::{
    all_transition_faults, collapse, coverage_percent, BroadsideTest, FaultSimEngine,
    FaultSimOptions, PackedParallelSim, TestSet, TransitionFault,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::Netlist;
use fbt_sim::kernel::Kernel;
use fbt_sim::seq::simulate_sequence;
use fbt_sim::Bits;

use crate::trace::Tracer;

/// Sequences per circuit and their length.
pub const SEQUENCES: usize = 64;
pub const SEQ_LEN: usize = 600;
/// The n-detection cap of the profile pass.
pub const N_DETECT: usize = 10;

/// One circuit's grading inputs.
pub struct Subject {
    pub name: String,
    pub net: Netlist,
    pub faults: Vec<TransitionFault>,
    pub tests: Vec<BroadsideTest>,
}

/// The on-chip TPG seeds of one circuit, drawn from the workload seed.
fn tpg_seeds(seed: u64, circuit: usize, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x6AD3_0000 ^ circuit as u64);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Generate the inputs of one circuit: expand each seed on the paper's TPG,
/// simulate the sequence from reset and extract its functional broadside
/// tests. With a tracer, each layer gets a span.
fn inputs(mut tr: Option<&mut Tracer>, net: &Netlist, seeds: &[u64]) -> Vec<BroadsideTest> {
    let cfg = fbt_core::FunctionalBistConfig::scaled();
    let source = TpgSeedSource::for_circuit(net, &cfg);
    let zero = Bits::zeros(net.num_dffs());
    let mut tests = Vec::with_capacity(seeds.len() * SEQ_LEN / 2);
    for &s in seeds {
        let mut layer = |name: &'static str, f: &mut dyn FnMut()| match tr.as_deref_mut() {
            Some(t) => t.span(name, |_| f()),
            None => f(),
        };
        let mut pis = Vec::new();
        layer("bist.tpg", &mut || pis = source.expand(s, SEQ_LEN));
        let mut states = Vec::new();
        layer("sim.seq", &mut || {
            states = simulate_sequence(net, &zero, &pis).states
        });
        layer("core.extract", &mut || {
            tests.extend(functional_tests(&pis, &states))
        });
    }
    tests
}

/// Set-up: synthesize the circuits, build fault lists, compile kernels
/// (into the cache when `keep`) and generate the tests.
pub fn setup(
    tr: Option<&mut Tracer>,
    scale: Scale,
    names: &[&str],
    sequences: usize,
    seed: u64,
    keep: bool,
) -> Vec<Subject> {
    let mut tr = tr;
    names
        .iter()
        .enumerate()
        .map(|(ci, name)| {
            let net = fbt_bench::circuit(scale, name);
            let faults = collapse(&net, &all_transition_faults(&net));
            if keep {
                Kernel::for_netlist(&net);
            } else {
                std::hint::black_box(Kernel::build(&net));
            }
            let tests = inputs(tr.as_deref_mut(), &net, &tpg_seeds(seed, ci, sequences));
            Subject {
                name: name.to_string(),
                net,
                faults,
                tests,
            }
        })
        .collect()
}

/// The three passes' results on one circuit.
pub struct Grades {
    pub detected: Vec<bool>,
    pub ndetect: Vec<usize>,
    pub full: Vec<usize>,
    pub walls: [Duration; 3],
}

/// The pass names, in order.
pub const PASSES: [&str; 3] = ["drop", "ndetect", "full"];

/// Run the three grading passes at `threads` (0 = every core).
pub fn grade(s: &Subject, threads: usize) -> Grades {
    grade_with(None, s, threads)
}

/// The grading passes at every core, each pass under a span.
pub fn grade_traced(tr: &mut Tracer, s: &Subject) -> Grades {
    grade_with(Some(tr), s, 0)
}

fn grade_with(mut tr: Option<&mut Tracer>, s: &Subject, threads: usize) -> Grades {
    let mut engine = PackedParallelSim::new(&s.net);
    let set = TestSet::Broadside(&s.tests);
    let opts = FaultSimOptions::new().threads(threads);
    let mut pass = |name: &'static str, f: &mut dyn FnMut(&mut PackedParallelSim<'_>)| {
        let span = tr.as_deref_mut().map(|t| t.enter(name));
        let (_, d) = crate::report::timed(|| f(&mut engine));
        if let (Some(t), Some(span)) = (tr.as_deref_mut(), span) {
            t.exit(span);
        }
        d
    };
    let mut detected = vec![false; s.faults.len()];
    let d0 = pass("fault.grade.drop", &mut |e| {
        e.simulate(set, &s.faults, &mut detected, &opts);
    });
    let mut ndetect = Vec::new();
    let d1 = pass("fault.grade.ndetect", &mut |e| {
        ndetect = if threads == 0 {
            e.n_detect_profile(&s.tests, &s.faults, N_DETECT)
        } else {
            let mut saturated = vec![false; s.faults.len()];
            e.simulate(
                set,
                &s.faults,
                &mut saturated,
                &opts.clone().n_detect(N_DETECT),
            )
            .counts
            .expect("n-detect counts were requested")
        }
    });
    let mut full = Vec::new();
    let d2 = pass("fault.grade.full", &mut |e| {
        let mut none = vec![false; s.faults.len()];
        let all = opts
            .clone()
            .n_detect(s.tests.len().max(2))
            .fault_dropping(false);
        full = e
            .simulate(set, &s.faults, &mut none, &all)
            .counts
            .expect("detection counts were requested")
    });
    Grades {
        detected,
        ndetect,
        full,
        walls: [d0, d1, d2],
    }
}

/// The output check: the three passes agree at n = 1, and the profile is
/// the full counts clamped at the cap.
pub fn agree(g: &Grades) -> bool {
    g.detected.len() == g.ndetect.len()
        && g.detected.len() == g.full.len()
        && g.detected
            .iter()
            .zip(&g.ndetect)
            .zip(&g.full)
            .all(|((&d, &n), &f)| d == (n >= 1) && d == (f >= 1) && n == f.min(N_DETECT))
}

/// Transition-fault coverage with fault dropping, percent.
pub fn coverage(g: &Grades) -> f64 {
    coverage_percent(&g.detected)
}
