//! Overtesting estimation (the limitation discussed in paper §4.6 and the
//! motivation for the §5.1 signal-transition-pattern metric).
//!
//! Bounding switching activity guarantees test power stays within the
//! functional envelope, but a state-transition can respect the bound while
//! still exercising *signal transitions that functional operation never
//! produces* — the residual overtesting channel. This module replays a
//! generated test program and counts, per applied clock cycle, whether its
//! pattern of signal-transitions is covered by the functional library.

use fbt_netlist::Netlist;
use fbt_sim::lanes::LaneSeqSim;

use crate::constrained::ConstrainedOutcome;
use crate::engine::{SeedSource, TpgSeedSource};
use crate::policy::AdmissibilityPolicy;
use crate::stp::StpLibrary;
use crate::FunctionalBistConfig;

/// How functional the applied state-transitions were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvertestReport {
    /// Measurable applied clock cycles (segment-internal transitions).
    pub total_transitions: usize,
    /// Cycles whose signal-transition pattern is *not* a subset of any
    /// functional pattern — the residual overtesting exposure.
    pub non_functional: usize,
}

impl OvertestReport {
    /// Fraction of applied transitions outside the functional envelope.
    pub fn non_functional_fraction(&self) -> f64 {
        if self.total_transitions == 0 {
            0.0
        } else {
            self.non_functional as f64 / self.total_transitions as f64
        }
    }
}

/// Replay `outcome` and grade every applied state-transition against the
/// functional signal-transition library.
///
/// A run produced with [`crate::generate_constrained_with_library`] under
/// the same library reports zero non-functional transitions by
/// construction; SWA-bounded runs typically report a nonzero residue —
/// quantifying what the stricter metric buys.
pub fn estimate_overtesting(
    net: &Netlist,
    outcome: &ConstrainedOutcome,
    cfg: &FunctionalBistConfig,
    library: &StpLibrary,
) -> OvertestReport {
    let source = TpgSeedSource::for_circuit(net, cfg);
    let mut total = 0usize;
    let mut non_functional = 0usize;
    let mut sim = LaneSeqSim::new(net, 1);
    for seq in &outcome.sequences {
        let mut state = seq.initial_state.clone();
        for seg in &seq.segments {
            let pis = source.expand(seg.seed, cfg.seq_len);
            // Each segment is a state load: its first cycle has no pattern.
            sim.broadcast_state(&state);
            for pi in &pis[..seg.len] {
                sim.step(std::slice::from_ref(pi), None);
                if !sim.prev_node_words().is_empty() {
                    total += 1;
                    non_functional += library.inadmissible_lanes(&sim, 1) as usize;
                }
            }
            state = sim.lane_state(0);
        }
    }
    OvertestReport {
        total_transitions: total,
        non_functional,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{functional_sequences, DrivingBlock};
    use crate::{generate_constrained, generate_constrained_with_library};
    use fbt_netlist::s27;

    #[test]
    fn stp_generated_programs_have_zero_residue() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &cfg);
        let lib = StpLibrary::collect(&net, &fbt_sim::Bits::zeros(3), &seqs);
        let bound = lib.max_pattern_len() as f64 / net.num_nodes() as f64;
        let out = generate_constrained_with_library(&net, bound, &lib, &cfg);
        let report = estimate_overtesting(&net, &out, &cfg, &lib);
        assert_eq!(
            report.non_functional, 0,
            "STP-admitted transitions are functional by construction"
        );
    }

    #[test]
    fn swa_bounded_programs_can_leave_a_residue() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &cfg);
        let lib = StpLibrary::collect(&net, &fbt_sim::Bits::zeros(3), &seqs);
        let out = generate_constrained(&net, 1.0, &cfg);
        let report = estimate_overtesting(&net, &out, &cfg, &lib);
        assert!(report.total_transitions > 0);
        assert!(report.non_functional_fraction() >= 0.0);
        assert!(report.non_functional_fraction() <= 1.0);
        // With an unconstrained bound and a tiny functional sample, some
        // transitions fall outside the library.
        assert!(
            report.non_functional > 0,
            "expected residual overtesting under bound = 100%"
        );
    }
}
