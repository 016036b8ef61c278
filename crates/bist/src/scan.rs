//! Scan-chain structure and shift behaviour (paper §1.3, Fig. 1.8).
//!
//! The experiments' scan configuration (§4.6) allows at most 10 chains of at
//! least 100 cells each, approximately balanced. Shifting is modelled
//! cycle-accurately so that scan (shift) power — the subject of the
//! low-power scan literature the paper builds on (\[78\]–\[80\]) — can be
//! measured, and so that the test-time accounting of
//! [`crate::schedule::TestSchedule`] rests on a real structure.

use fbt_sim::Bits;

/// A partition of the flip-flops into scan chains.
///
/// Chain entries are flip-flop positions (indices into the netlist's
/// `dffs()` order), listed from scan-in to scan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChains {
    chains: Vec<Vec<usize>>,
    n_ff: usize,
}

impl ScanChains {
    /// Partition `n_ff` flip-flops into balanced chains per the §4.6 rule:
    /// as many chains as `n_ff / min_len` allows, at most `max_chains`,
    /// at least one.
    pub fn balanced(n_ff: usize, max_chains: usize, min_len: usize) -> Self {
        assert!(max_chains >= 1, "need at least one chain");
        if n_ff == 0 {
            return ScanChains {
                chains: vec![Vec::new()],
                n_ff,
            };
        }
        let n_chains = (n_ff / min_len.max(1)).clamp(1, max_chains);
        let mut chains = vec![Vec::new(); n_chains];
        for ff in 0..n_ff {
            chains[ff % n_chains].push(ff);
        }
        ScanChains { chains, n_ff }
    }

    /// The paper's configuration: at most 10 chains of at least 100 cells.
    pub fn paper_config(n_ff: usize) -> Self {
        ScanChains::balanced(n_ff, 10, 100)
    }

    /// Number of chains.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// Length of the longest chain (`Lsc`, the shift cost per load).
    pub fn longest(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The chains themselves.
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// The per-cycle flip-flop states while shifting from state `from` to
    /// state `to` (exclusive of `from`, inclusive of the fully-loaded `to`).
    /// Shift-in bits are fed so that after `longest()` cycles every cell
    /// holds its target value; shorter chains idle-pad at the front.
    ///
    /// # Panics
    ///
    /// Panics on state-width mismatches.
    pub fn shift_states(&self, from: &Bits, to: &Bits) -> Vec<Bits> {
        assert_eq!(from.len(), self.n_ff, "state width mismatch");
        assert_eq!(to.len(), self.n_ff, "state width mismatch");
        let total = self.longest();
        let mut cur = from.clone();
        let mut out = Vec::with_capacity(total);
        for t in 0..total {
            let mut next = cur.clone();
            for chain in &self.chains {
                let l = chain.len();
                if l == 0 {
                    continue;
                }
                // Shift toward scan-out (the end of the list).
                for j in (1..l).rev() {
                    next.set(chain[j], cur.get(chain[j - 1]));
                }
                // The bit entering now must land in cell j after the
                // remaining shifts: with `total - t` shifts left (including
                // this one) it ends at position total - t - 1... padded for
                // short chains so the last `l` entering bits are
                // to[chain[l-1]], …, to[chain[0]].
                let remaining_after = total - t - 1;
                let incoming = if remaining_after < l {
                    to.get(chain[remaining_after])
                } else {
                    false // idle padding for short chains
                };
                next.set(chain[0], incoming);
            }
            out.push(next.clone());
            cur = next;
        }
        out
    }

    /// Mean per-cycle flip-flop toggle fraction while shifting between two
    /// states — the scan shift activity the low-power scan techniques
    /// (\[78\]–\[80\]) target.
    pub fn shift_activity(&self, from: &Bits, to: &Bits) -> f64 {
        let states = self.shift_states(from, to);
        if states.is_empty() || self.n_ff == 0 {
            return 0.0;
        }
        let mut prev = from.clone();
        let mut toggles = 0usize;
        for s in &states {
            toggles += prev.hamming(s);
            prev = s.clone();
        }
        toggles as f64 / (states.len() * self.n_ff) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::rng::Rng;

    #[test]
    fn balanced_partition_matches_paper_rule() {
        let sc = ScanChains::paper_config(1728); // s35932
        assert_eq!(sc.num_chains(), 10);
        assert_eq!(sc.longest(), 173);
        let sc = ScanChains::paper_config(229); // spi
        assert_eq!(sc.num_chains(), 2);
        assert_eq!(sc.longest(), 115);
        let sc = ScanChains::paper_config(50); // shorter than min_len
        assert_eq!(sc.num_chains(), 1);
        assert_eq!(sc.longest(), 50);
        // The longest chain is Table 4.3's `Lsc`.
        let lsc = |n_ff| ScanChains::paper_config(n_ff).longest();
        assert_eq!(lsc(0), 0);
        assert_eq!(lsc(1164), 117); // s38584
        assert_eq!(lsc(8808), 881); // des_perf
    }

    #[test]
    fn every_ff_in_exactly_one_chain() {
        let sc = ScanChains::balanced(137, 10, 10);
        let mut seen = [false; 137];
        for c in sc.chains() {
            for &ff in c {
                assert!(!seen[ff]);
                seen[ff] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shifting_loads_the_target_state() {
        let mut rng = Rng::new(77);
        for n_ff in [1usize, 7, 64, 201] {
            let sc = ScanChains::balanced(n_ff, 4, 16);
            let from: Bits = (0..n_ff).map(|_| rng.bit()).collect();
            let to: Bits = (0..n_ff).map(|_| rng.bit()).collect();
            let states = sc.shift_states(&from, &to);
            assert_eq!(states.len(), sc.longest());
            assert_eq!(states.last().unwrap(), &to, "n_ff = {n_ff}");
        }
    }

    #[test]
    fn shift_activity_zero_for_constant_zero_states() {
        let sc = ScanChains::balanced(32, 4, 8);
        let zero = Bits::zeros(32);
        assert_eq!(sc.shift_activity(&zero, &zero), 0.0);
    }

    #[test]
    fn shift_activity_positive_for_alternating_load() {
        let sc = ScanChains::balanced(32, 2, 8);
        let zero = Bits::zeros(32);
        let alt: Bits = (0..32).map(|i| i % 2 == 0).collect();
        let a = sc.shift_activity(&zero, &alt);
        assert!(a > 0.0 && a <= 1.0);
    }
}
