//! Patterns of signal-transitions — the §5.1 future-work deviation metric
//! (\[90\]).
//!
//! A *pattern of signal-transitions* of a state-transition is the set of
//! lines that switch, each tagged with its direction. Requiring every
//! state-transition during on-chip test generation to have a pattern that is
//! a **subset** of some pattern observed during functional operation is
//! strictly stronger than the switching-activity bound: it implies
//! `SWA ≤ SWAfunc` *and* forbids signal transitions that functional
//! operation never produces, addressing overtesting through slow
//! non-functional paths.
//!
//! Patterns are read off a [`LaneSeqSim`]'s previous and current packed
//! node words, for the functional library and for candidates alike, so the
//! rule judges a whole speculative round of candidates per simulated cycle.

use std::collections::HashSet;

use fbt_netlist::Netlist;
use fbt_sim::lanes::LaneSeqSim;
use fbt_sim::Bits;

use crate::policy::AdmissibilityPolicy;

/// A library of functional signal-transition patterns.
///
/// Each pattern is a sorted list of `(line, new_value)` pairs; patterns are
/// deduplicated on collection.
#[derive(Debug, Clone, Default)]
pub struct StpLibrary {
    patterns: Vec<Vec<(u32, bool)>>,
}

/// Hand every active lane in `live` its pattern of signal-transitions over
/// the most recent cycle of `sim`, sorted by line, in lane order. Nothing
/// is reported before the simulator has two cycles to compare.
fn for_each_pattern(sim: &LaneSeqSim<'_>, live: u64, mut f: impl FnMut(usize, Vec<(u32, bool)>)) {
    let (prev, cur) = (sim.prev_node_words(), sim.node_words());
    if prev.is_empty() {
        return;
    }
    // Bits above the active lanes carry no meaning.
    let live = live & (u64::MAX >> (64 - sim.lanes()));
    let mut patterns: Vec<Vec<(u32, bool)>> = vec![Vec::new(); sim.lanes()];
    for (line, (&p, &v)) in prev.iter().zip(cur).enumerate() {
        let mut toggled = (p ^ v) & live;
        while toggled != 0 {
            let l = toggled.trailing_zeros() as usize;
            patterns[l].push((line as u32, (v >> l) & 1 == 1));
            toggled &= toggled - 1;
        }
    }
    for (l, pattern) in patterns.into_iter().enumerate() {
        if (live >> l) & 1 == 1 {
            f(l, pattern);
        }
    }
}

impl StpLibrary {
    /// Collect the library by simulating the functional input sequences from
    /// `initial` and recording every state-transition's pattern.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn collect(net: &Netlist, initial: &Bits, sequences: &[Vec<Bits>]) -> Self {
        let mut seen: HashSet<Vec<(u32, bool)>> = HashSet::new();
        let mut sim = LaneSeqSim::new(net, 1);
        for seq in sequences {
            sim.broadcast_state(initial);
            for pi in seq {
                sim.step(std::slice::from_ref(pi), None);
                for_each_pattern(&sim, 1, |_, pattern| {
                    seen.insert(pattern);
                });
            }
        }
        let mut patterns: Vec<Vec<(u32, bool)>> = seen.into_iter().collect();
        // Longest first: a candidate can only be a subset of a pattern at
        // least as large, so lookups can stop early.
        patterns.sort_by_key(|p| std::cmp::Reverse(p.len()));
        StpLibrary { patterns }
    }

    /// Number of distinct functional patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Is `candidate` (sorted) a subset of some functional pattern?
    pub fn allows(&self, candidate: &[(u32, bool)]) -> bool {
        if candidate.is_empty() {
            return true;
        }
        for p in &self.patterns {
            if p.len() < candidate.len() {
                return false; // remaining patterns are even shorter
            }
            if is_subset(candidate, p) {
                return true;
            }
        }
        false
    }

    /// The largest functional pattern size — an upper bound on admissible
    /// switching activity (in lines).
    pub fn max_pattern_len(&self) -> usize {
        self.patterns.first().map_or(0, Vec::len)
    }
}

/// Merge-test: is sorted `a` a subset of sorted `b`?
fn is_subset(a: &[(u32, bool)], b: &[(u32, bool)]) -> bool {
    let mut bi = 0;
    'outer: for x in a {
        while bi < b.len() {
            match b[bi].cmp(x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// A cycle is admissible when its pattern of signal-transitions is a subset
/// of a functional one; the first cycle after a state load has no pattern
/// and always is.
impl AdmissibilityPolicy for StpLibrary {
    fn inadmissible_lanes(&self, sim: &LaneSeqSim<'_>, live: u64) -> u64 {
        let mut rejected = 0u64;
        for_each_pattern(sim, live, |l, pattern| {
            if !self.allows(&pattern) {
                rejected |= 1 << l;
            }
        });
        rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{functional_sequences, DrivingBlock};
    use crate::policy::{prefix_before, SwaRule};
    use crate::{generate_constrained_with_library, FunctionalBistConfig};
    use fbt_netlist::s27;

    /// Each lane's admissible prefix under `policy` with the equal-length
    /// `seqs` clocked as lanes from `start`, derived as the engine's round
    /// derives it.
    fn lane_prefixes(
        policy: &dyn AdmissibilityPolicy,
        net: &Netlist,
        start: &Bits,
        seqs: &[Vec<Bits>],
    ) -> Vec<usize> {
        let (lanes, len) = (seqs.len(), seqs[0].len());
        let mut sim = LaneSeqSim::new(net, lanes);
        sim.broadcast_state(start);
        let mut swa: Vec<Vec<Option<f64>>> = vec![Vec::new(); lanes];
        let mut first_rejected: Vec<Option<usize>> = vec![None; lanes];
        // `c` indexes the inner (cycle) axis of `seqs` inside the closure.
        #[allow(clippy::needless_range_loop)]
        for c in 0..len {
            sim.step_with(|l| &seqs[l][c], None);
            // Every bit live: bits above the active lanes must be ignored.
            let rejected = policy.inadmissible_lanes(&sim, u64::MAX);
            assert_eq!(rejected >> lanes, 0, "only active lanes are judged");
            for (l, (trace, first)) in swa.iter_mut().zip(&mut first_rejected).enumerate() {
                trace.push(sim.swa().map(|s| s[l]));
                if (rejected >> l) & 1 == 1 {
                    first.get_or_insert(c);
                }
            }
        }
        (0..lanes)
            .map(|l| {
                policy
                    .admissible_prefix_from_trace(&swa[l], len)
                    .unwrap_or(len & !1)
                    .min(prefix_before(first_rejected[l], len))
            })
            .collect()
    }

    #[test]
    fn subset_merge_test() {
        let b = [(1, true), (3, false), (7, true)];
        assert!(is_subset(&[(3, false)], &b));
        assert!(is_subset(&[(1, true), (7, true)], &b));
        assert!(is_subset(&[], &b));
        assert!(!is_subset(&[(3, true)], &b));
        assert!(!is_subset(&[(2, true)], &b));
        assert!(!is_subset(&[(1, true), (8, false)], &b));
    }

    #[test]
    fn functional_patterns_allow_themselves() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &cfg);
        let lib = StpLibrary::collect(&net, &Bits::zeros(3), &seqs);
        assert!(!lib.is_empty());
        // Re-simulate the functional sequences: every cycle is allowed.
        for (seq, prefix) in seqs
            .iter()
            .zip(lane_prefixes(&lib, &net, &Bits::zeros(3), &seqs))
        {
            assert_eq!(prefix, seq.len() & !1usize);
        }
    }

    #[test]
    fn empty_pattern_always_allowed() {
        let lib = StpLibrary::default();
        assert!(lib.allows(&[]));
        assert!(!lib.allows(&[(0, true)]));
    }

    #[test]
    fn stp_constrained_generation_runs() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &cfg);
        let lib = StpLibrary::collect(&net, &Bits::zeros(3), &seqs);
        let bound = lib.max_pattern_len() as f64 / net.num_nodes() as f64;
        let out = generate_constrained_with_library(&net, bound, &lib, &cfg);
        // STP is stricter than SWA: activity stays within the largest
        // functional pattern.
        assert!(out.peak_swa <= bound + 1e-12);
    }

    #[test]
    fn stp_is_no_looser_than_swa() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &cfg);
        let lib = StpLibrary::collect(&net, &Bits::zeros(3), &seqs);
        let swa_bound = lib.max_pattern_len() as f64 / net.num_nodes() as f64;
        let swa_rule = SwaRule { bound: swa_bound };
        // On any candidate segment, the STP prefix cannot exceed the SWA
        // prefix computed from the library's own activity ceiling.
        let mut tpg =
            fbt_bist::Tpg::new(fbt_bist::TpgSpec::standard(vec![fbt_sim::Trit::X; 4]), 42);
        let cands: Vec<Vec<Bits>> = (0..5).map(|_| tpg.sequence(40)).collect();
        let zero = Bits::zeros(3);
        let stp = lane_prefixes(&lib, &net, &zero, &cands);
        let swa = lane_prefixes(&swa_rule, &net, &zero, &cands);
        for (stp_len, swa_len) in stp.into_iter().zip(swa) {
            assert!(stp_len <= swa_len, "stp {stp_len} > swa {swa_len}");
        }
    }
}
