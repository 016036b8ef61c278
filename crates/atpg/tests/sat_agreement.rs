//! PODEM against the SAT engine on s27: every transition fault gets a
//! definite SAT verdict, each SAT test detects its fault in simulation, and
//! wherever PODEM reaches a verdict of its own, the two agree.

use std::time::Duration;

use fbt_atpg::{AtpgOutcome, Podem, PodemConfig};
use fbt_fault::{all_transition_faults, FaultSimEngine, PackedParallelSim};
use fbt_netlist::s27;
use fbt_sat::{solve_transition_fault, DetectionVerdict};

#[test]
fn sat_and_podem_verdicts_agree_on_s27() {
    let net = s27();
    let mut podem = Podem::new(
        &net,
        PodemConfig {
            backtrack_limit: 100_000,
            time_limit: Duration::from_secs(20),
        },
    );
    let mut sim = PackedParallelSim::new(&net);
    for fault in all_transition_faults(&net) {
        let (sat, _) = solve_transition_fault(&net, &fault, None);
        match &sat {
            DetectionVerdict::Test(t) => {
                assert!(sim.detects(t, &fault), "SAT test must detect {fault}")
            }
            DetectionVerdict::Untestable => {}
            DetectionVerdict::Unknown => panic!("no conflict limit was set"),
        }
        match podem.generate(&fault) {
            AtpgOutcome::Test(_) => {
                assert!(matches!(sat, DetectionVerdict::Test(_)), "{fault}")
            }
            AtpgOutcome::Untestable => {
                assert_eq!(sat, DetectionVerdict::Untestable, "{fault}")
            }
            AtpgOutcome::Aborted => {}
        }
    }
}
