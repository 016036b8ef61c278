//! Self-contained benches for the performance kernels: packed logic
//! simulation, the packed-parallel fault-simulation engine at several
//! thread counts, the TPG hardware model and K-critical-path STA. These correspond to the
//! per-sub-procedure run-time comparisons of Tables 2.5 / 2.6 at kernel
//! granularity.
//!
//! Criterion is deliberately not used: the build environment is offline, so
//! the harness is a plain `fn main()` with `std::time::Instant` timing
//! (`harness = false` in the manifest). Run with
//! `cargo bench --bench kernels`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fbt_bist::{cube, Tpg, TpgSpec};
use fbt_fault::{
    all_transition_faults, BroadsideTest, FaultSimEngine, FaultSimOptions, PackedParallelSim,
    TestSet,
};
use fbt_netlist::rng::Rng;
use fbt_netlist::synth;
use fbt_sim::comb;
use fbt_timing::sta::{k_critical_paths, Unconstrained};
use fbt_timing::DelayLibrary;

/// Time `f` adaptively: warm up once, then repeat until ~0.5 s has elapsed
/// and report the mean per-iteration time.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Duration {
    black_box(f());
    let budget = Duration::from_millis(500);
    let mut iters = 0u32;
    let start = Instant::now();
    while start.elapsed() < budget {
        black_box(f());
        iters += 1;
    }
    let mean = start.elapsed() / iters.max(1);
    println!("{name:<44} {mean:>12.2?}/iter  ({iters} iters)");
    mean
}

fn net_1196() -> fbt_netlist::Netlist {
    synth::generate(&synth::find("s1196").unwrap())
}

fn random_tests(net: &fbt_netlist::Netlist, n: usize, seed: u64) -> Vec<BroadsideTest> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            BroadsideTest::new(
                (0..net.num_dffs()).map(|_| rng.bit()).collect(),
                (0..net.num_inputs()).map(|_| rng.bit()).collect(),
                (0..net.num_inputs()).map(|_| rng.bit()).collect(),
            )
        })
        .collect()
}

fn bench_packed_eval() {
    let net = net_1196();
    let mut vals = vec![0u64; net.num_nodes()];
    let mut rng = Rng::new(1);
    for v in vals.iter_mut() {
        *v = rng.next_u64();
    }
    bench("packed_eval_s1196_64pat", || {
        comb::eval_packed(&net, black_box(&mut vals));
    });
}

/// The headline comparison: the packed-parallel engine driven one pattern
/// per word, then packed at several thread counts, without fault dropping
/// so every run does the same amount of work. Reports throughput in
/// pattern·fault evaluations/s.
fn bench_fault_sim_engines() {
    let net = net_1196();
    let faults = all_transition_faults(&net);
    let tests = random_tests(&net, 256, 2);
    let work = (tests.len() * faults.len()) as f64;
    let opts = FaultSimOptions::new().fault_dropping(false);

    // Baseline: the engine on one thread driven one test at a time, so each
    // 64-lane word carries a single pattern. This isolates the packing
    // factor itself (identical propagation, 1/64th lane occupancy).
    let single = &tests[..64];
    let work_single = (single.len() * faults.len()) as f64;
    let one_thread = opts.clone().threads(1);
    let mut unpacked1 = PackedParallelSim::new(&net);
    let t1 = bench("fault_sim_s1196_64tests/1pat_word_t1", || {
        let mut detected = vec![false; faults.len()];
        for t in single {
            black_box(unpacked1.simulate(
                TestSet::Broadside(std::slice::from_ref(t)),
                &faults,
                &mut detected,
                &one_thread,
            ));
        }
    });
    let unpacked = work_single / t1.as_secs_f64();
    println!(
        "{:<44} {:>10.1} Mpat·fault/s",
        "  1-pattern/word throughput",
        unpacked / 1e6
    );

    // The packed baseline is the first row: one thread.
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        let opts = opts.clone().threads(threads);
        let mut packed = PackedParallelSim::new(&net);
        let t = bench(
            &format!("fault_sim_s1196_256tests/packed_t{threads}"),
            || {
                let mut detected = vec![false; faults.len()];
                black_box(packed.simulate(
                    TestSet::Broadside(&tests),
                    &faults,
                    &mut detected,
                    &opts,
                ))
            },
        )
        .as_secs_f64();
        let base = *base.get_or_insert(t);
        println!(
            "{:<44} {:>10.1} Mpat·fault/s  ({:.1}x vs 1-pattern/word, {:.2}x vs packed_t1)",
            format!("  packed_t{threads} throughput"),
            work / t / 1e6,
            work / t / unpacked,
            base / t
        );
    }
}

fn bench_tpg() {
    let net = net_1196();
    let spec = TpgSpec::standard(cube::input_cube(&net));
    bench("tpg_s1196_1000cycles", || {
        let mut tpg = Tpg::new(spec.clone(), 0xACE1);
        black_box(tpg.sequence(1000))
    });
}

fn bench_sta() {
    let net = synth::generate(&synth::find("s953").unwrap());
    let lib = DelayLibrary::generic_018um();
    bench("k_critical_paths_s953_k200", || {
        black_box(k_critical_paths(&net, &lib, 200, &Unconstrained, 1_000_000))
    });
}

fn main() {
    println!(
        "host parallelism: {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    bench_packed_eval();
    bench_fault_sim_engines();
    bench_tpg();
    bench_sta();
}
