//! `bench_ch4` — wall-clock benchmark of the Chapter-4 seed search: the
//! serial loop (`serial`: `batch = 1, threads = 1`) against deterministic
//! speculative batching (`packed8`: `batch = 8`, fault simulation on every
//! core). Both run the same candidate-packed round and produce
//! bit-identical outcomes (asserted here); the benchmark measures the
//! wall-clock and wasted-evaluation trade. All methods run through the
//! unified policy-driven `GenerationEngine` (the `engine` field of the JSON
//! summary records this).
//!
//! Usage: `bench_ch4 [scale] [circuit]` — the optional second argument (or
//! `BENCH_CH4_CIRCUIT`) restricts the run to one catalog circuit, e.g.
//! `bench_ch4 smoke spi`.
//!
//! Prints the per-run [`GenerationStats`] and writes a machine-readable
//! summary to `BENCH_ch4.json` (override the path with `BENCH_CH4_OUT`).

use std::time::Instant;

use fbt_bench::{ch4, fmt_duration, pct, Scale, Table};
use fbt_core::driver::swafunc;
use fbt_core::{
    generate_constrained, generate_unconstrained, FunctionalBistConfig, GenerationStats,
    SearchOptions,
};
use fbt_netlist::json::{ArrWriter, ObjWriter};

/// Identifies the generation-loop implementation the numbers were measured
/// on, so stored benchmark JSON stays comparable across refactors.
const ENGINE: &str = "unified";

struct Entry {
    circuit: String,
    method: &'static str,
    mode: &'static str,
    batch: usize,
    threads: usize,
    /// The mode asked for multi-threading (auto or explicit) but the host
    /// cannot provide it, so this row's thread-scaling numbers say nothing
    /// about parallel speedup — only about batching. Marked, not dropped:
    /// the determinism (coverage identity) assertions still apply.
    threads_capped: bool,
    fc_pct: f64,
    stats: GenerationStats,
}

impl Entry {
    fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.str("circuit", &self.circuit)
            .str("method", self.method)
            .str("mode", self.mode)
            .num("batch", self.batch)
            .num("threads", self.threads)
            .bool("threads_capped", self.threads_capped)
            .num("fc_pct", format!("{:.4}", self.fc_pct))
            .raw("stats", &self.stats.to_json());
        o.finish()
    }
}

fn modes() -> [(&'static str, SearchOptions); 2] {
    [
        ("serial", SearchOptions::serial()),
        ("packed8", SearchOptions::speculative(8)),
    ]
}

fn main() {
    let scale = Scale::from_env();
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if host_threads == 1 {
        eprintln!(
            "bench_ch4: single-core host — multi-thread modes run capped at 1 \
             thread and their rows are marked threads_capped"
        );
    }
    let filter = std::env::args()
        .nth(2)
        .or_else(|| std::env::var("BENCH_CH4_CIRCUIT").ok());
    let base = scale.bist_config();
    let mut entries: Vec<Entry> = Vec::new();
    let mut t = Table::new(&[
        "Circuit", "Method", "Mode", "FC %", "Evals", "Wasted", "Waste %", "Wall",
    ]);

    let selected: Vec<&'static str> = ch4::pairs(scale)
        .into_iter()
        .map(|(target_name, _)| target_name)
        .filter(|name| filter.as_deref().is_none_or(|f| f == *name))
        .collect();
    assert!(
        !selected.is_empty(),
        "circuit filter {:?} matches nothing at scale {scale:?}",
        filter.as_deref().unwrap_or("")
    );

    for target_name in selected {
        let target = fbt_bench::circuit(scale, target_name);
        let bound = swafunc(&target, &fbt_core::DrivingBlock::Buffers, &base);

        let mut fc_by_method: [Option<f64>; 2] = [None, None];
        for (mode, search) in modes() {
            let cfg = FunctionalBistConfig {
                search,
                ..base.clone()
            };
            for (mi, method) in ["unconstrained", "constrained"].into_iter().enumerate() {
                let t0 = Instant::now();
                let (fc, mut stats) = match method {
                    "unconstrained" => {
                        let out = generate_unconstrained(&target, &cfg);
                        (out.fault_coverage(), out.stats.clone())
                    }
                    _ => {
                        let out = generate_constrained(&target, bound, &cfg);
                        (out.fault_coverage(), out.stats.clone())
                    }
                };
                stats.total_wall = t0.elapsed();
                // Determinism guarantee: every mode must reach the same
                // coverage (outcomes are bit-identical by construction).
                match fc_by_method[mi] {
                    None => fc_by_method[mi] = Some(fc),
                    Some(prev) => assert_eq!(prev, fc, "{target_name} {method} {mode}"),
                }
                println!("{target_name:>12} {method:>13} {mode:>6}: {stats}");
                t.row(vec![
                    target_name.to_string(),
                    method.to_string(),
                    mode.to_string(),
                    pct(fc),
                    stats.evals.to_string(),
                    stats.wasted_evals.to_string(),
                    pct(100.0 * stats.waste_ratio()),
                    fmt_duration(stats.total_wall),
                ]);
                entries.push(Entry {
                    circuit: target_name.to_string(),
                    method,
                    mode,
                    batch: search.batch,
                    threads: search.resolved_threads(),
                    // `threads != 1` requests parallelism (0 = auto, >1 =
                    // explicit); on a 1-core host that request is silently
                    // capped, so flag the row as unfit for scaling claims.
                    threads_capped: search.threads != 1 && host_threads == 1,
                    fc_pct: fc,
                    stats,
                });
            }
        }
    }

    t.print(&format!(
        "bench_ch4: serial vs speculative seed search [{scale:?}]"
    ));

    let mut rows = ArrWriter::new();
    for e in &entries {
        rows.raw(&e.to_json());
    }
    let mut doc = ObjWriter::new();
    doc.str("scale", &format!("{scale:?}"))
        .str("engine", ENGINE)
        .num("host_threads", SearchOptions::default().resolved_threads())
        .raw("entries", &rows.finish());
    let json = format!("{}\n", doc.finish());
    let path = std::env::var("BENCH_CH4_OUT").unwrap_or_else(|_| "BENCH_ch4.json".to_string());
    std::fs::write(&path, json).expect("write benchmark JSON");
    println!("\nwrote {path}");
}
