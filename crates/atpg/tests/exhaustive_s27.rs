//! Exhaustive validation of the TPDF pipeline on s27.
//!
//! s27 is small enough to enumerate every broadside test (2^11), so the
//! pipeline's per-fault verdicts can be checked against ground truth.
//!
//! Note on the paper's Table 2.1: it reports 25 detected / 31 undetectable
//! for s27, while exhaustive search under the detection semantics defined in
//! the dissertation's Chapter 1 (launch value under pattern 1, stuck-at
//! propagation to a primary output or scan capture under pattern 2) yields
//! 23 / 33. The two-fault difference is a tool-level semantic detail of the
//! authors' fault simulator; our pipeline is proven *internally* exact here.

use fbt_atpg::tpdf::{run_pipeline, TpdfConfig, TpdfStatus};
use fbt_atpg::PodemConfig;
use fbt_fault::path::{enumerate_paths, tpdf_list};
use fbt_fault::{FaultSimEngine, PackedParallelSim};
use fbt_netlist::s27;
use fbt_sim::Bits;
use std::time::Duration;

fn all_broadside_tests() -> Vec<fbt_fault::BroadsideTest> {
    (0u32..(1 << 11))
        .map(|combo| {
            let bit = |k: usize| (combo >> k) & 1 == 1;
            let s1: Bits = (0..3).map(bit).collect();
            let v1: Bits = (3..7).map(bit).collect();
            let v2: Bits = (7..11).map(bit).collect();
            fbt_fault::BroadsideTest::new(s1, v1, v2)
        })
        .collect()
}

#[test]
fn pipeline_matches_exhaustive_ground_truth_on_s27() {
    let net = s27();
    let faults = tpdf_list(&enumerate_paths(&net, usize::MAX));
    assert_eq!(faults.len(), 56, "Table 2.1: 56 faults for s27");

    let tests = all_broadside_tests();
    let mut fsim = PackedParallelSim::new(&net);
    let words = tests.len().div_ceil(64);

    let truth: Vec<bool> = faults
        .iter()
        .map(|f| {
            let trs = f.transition_faults(&net);
            let mat = fsim.detection_matrix(&tests, &trs);
            (0..words).any(|w| {
                let mut all = !0u64;
                for fi in 0..mat.num_faults() {
                    all &= mat.row(fi)[w];
                }
                all != 0
            })
        })
        .collect();
    let detectable = truth.iter().filter(|&&d| d).count();
    assert_eq!(detectable, 23, "ground truth for s27 (paper reports 25)");

    let cfg = TpdfConfig {
        tf_podem: PodemConfig {
            backtrack_limit: 5_000,
            time_limit: Duration::from_secs(10),
        },
        heuristic_time_limit: Duration::from_millis(300),
        bnb: PodemConfig {
            backtrack_limit: 200_000,
            time_limit: Duration::from_secs(20),
        },
        sat_fallback: true,
        preflight: true,
        seed: 7,
    };
    let report = run_pipeline(&net, &faults, &cfg);
    for ((f, verdict), &truly_detectable) in faults.iter().zip(&report.statuses).zip(&truth) {
        match verdict {
            TpdfStatus::Detected(..) => assert!(
                truly_detectable,
                "pipeline detected undetectable {}",
                f.path.display(&net)
            ),
            TpdfStatus::Undetectable(_) => assert!(
                !truly_detectable,
                "pipeline declared detectable {} undetectable",
                f.path.display(&net)
            ),
            TpdfStatus::Aborted => panic!("abort on s27: {}", f.path.display(&net)),
        }
    }
}
