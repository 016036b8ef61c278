//! Shared golden-fixture harness for the Chapter-4 generation modes.
//!
//! Used by two suites: `golden_ch4` (programmatic netlists against the
//! committed fixtures) and `verilog_twins` (the same circuits round-tripped
//! through the structural-Verilog frontend, proving the generation
//! artifacts are ingestion-path independent). Both must render the same
//! bytes, so the document builder lives here exactly once.

use std::fmt::Write as _;

use fbt_core::driver::{swafunc, DrivingBlock};
use fbt_core::{
    generate_constrained, generate_unconstrained, improve_with_holding, FunctionalBistConfig,
    SearchOptions,
};
use fbt_netlist::{s27, synth, Netlist};

pub const BATCHES: [usize; 3] = [1, 4, 16];
pub const THREADS: [usize; 3] = [1, 2, 8];

/// The fixture circuits: one genuine, two synthetic.
pub fn circuits() -> Vec<(&'static str, Netlist)> {
    vec![
        ("s27", s27()),
        ("s298", synth::generate(&synth::find("s298").unwrap())),
        ("s344", synth::generate(&synth::find("s344").unwrap())),
    ]
}

pub fn cfg_with(batch: usize, threads: usize) -> FunctionalBistConfig {
    FunctionalBistConfig {
        search: SearchOptions { batch, threads },
        ..FunctionalBistConfig::smoke()
    }
}

/// Build the full golden document for one circuit: semantic summaries from
/// the serial run plus per-batch deterministic counters, asserting along the
/// way that every batch/thread combination agrees.
pub fn golden_document(name: &str, net: &Netlist) -> String {
    let serial = cfg_with(1, 1);
    let bound = swafunc(net, &DrivingBlock::Buffers, &serial);
    // A deliberately tightened bound so holding has faults left to chase.
    let hold_bound = bound * 0.75;

    let u_ref = generate_unconstrained(net, &serial);
    let c_ref = generate_constrained(net, bound, &serial);
    let b_ref = generate_constrained(net, hold_bound, &serial);
    let h_ref = improve_with_holding(net, hold_bound, &serial, &b_ref);

    let mut per_batch = String::new();
    for (bi, &batch) in BATCHES.iter().enumerate() {
        let mut batch_stats: Option<(String, String, String)> = None;
        for &threads in &THREADS {
            let cfg = cfg_with(batch, threads);
            let label = format!("{name} batch={batch} threads={threads}");

            let u = generate_unconstrained(net, &cfg);
            assert_eq!(u.summary_json(), u_ref.summary_json(), "{label}");
            let c = generate_constrained(net, bound, &cfg);
            assert_eq!(c.summary_json(), c_ref.summary_json(), "{label}");
            let b = generate_constrained(net, hold_bound, &cfg);
            let h = improve_with_holding(net, hold_bound, &cfg, &b);
            assert_eq!(h.summary_json(), h_ref.summary_json(), "{label}");

            let triple = (
                u.stats.counters_json(),
                c.stats.counters_json(),
                h.stats.counters_json(),
            );
            match &batch_stats {
                // Counters must be thread-independent for a fixed batch.
                Some(first) => assert_eq!(first, &triple, "{label}: counters vary with threads"),
                None => batch_stats = Some(triple),
            }
        }
        let (us, cs, hs) = batch_stats.unwrap();
        if bi > 0 {
            per_batch.push(',');
        }
        write!(
            per_batch,
            "{{\"batch\":{batch},\"unconstrained\":{us},\"constrained\":{cs},\"holding\":{hs}}}"
        )
        .unwrap();
    }

    format!(
        "{{\"circuit\":\"{name}\",\"config\":\"smoke\",\"swafunc\":{bound},\
         \"holding_bound\":{hold_bound},\n\"unconstrained\":{},\n\"constrained\":{},\n\
         \"holding\":{},\n\"stats_per_batch\":[{per_batch}]}}\n",
        u_ref.summary_json(),
        c_ref.summary_json(),
        h_ref.summary_json(),
    )
}

/// The committed fixture for one circuit.
pub fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"))
}
