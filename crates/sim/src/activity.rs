//! Switching-activity measurement.
//!
//! The paper (Section 4.4) defines `SWA(i)` as the percentage of lines whose
//! values in clock cycle `i` differ from their values in clock cycle `i-1`,
//! with `SWA(0)` undefined. The peak over a set of *functional* input
//! sequences of the complete design defines `SWAfunc`, the bound that
//! constrained built-in test generation must respect.

use fbt_netlist::Netlist;

use crate::lanes::LaneSeqSim;
use crate::Bits;

/// Compute the peak switching activity of `net` over a set of input
/// sequences, each applied from `initial_state` — the paper's `SWAfunc`
/// when the sequences are functional input sequences of the design.
///
/// Up to 64 sequences are clocked together as the lanes of one
/// [`LaneSeqSim`] pass. A lane whose sequence has ended idles on the
/// all-zero input and no longer counts.
///
/// # Panics
///
/// Panics on width mismatches.
pub fn peak_activity(net: &Netlist, initial_state: &Bits, sequences: &[Vec<Bits>]) -> f64 {
    let idle = Bits::zeros(net.num_inputs());
    let mut peak = 0.0f64;
    for chunk in sequences.chunks(64) {
        let mut sim = LaneSeqSim::new(net, chunk.len());
        sim.broadcast_state(initial_state);
        let cycles = chunk.iter().map(Vec::len).max().unwrap_or(0);
        for c in 0..cycles {
            sim.step_with(|l| chunk[l].get(c).unwrap_or(&idle), None);
            if let Some(swa) = sim.swa() {
                for (seq, &s) in chunk.iter().zip(swa) {
                    if c < seq.len() {
                        peak = peak.max(s);
                    }
                }
            }
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::scalar_peak_activity;
    use crate::seq::simulate_sequence;
    use fbt_netlist::rng::Rng;
    use fbt_netlist::{s27, synth};

    fn toggling_sequence(len: usize) -> Vec<Bits> {
        (0..len)
            .map(|i| {
                if i % 2 == 0 {
                    Bits::from_str01("0000")
                } else {
                    Bits::from_str01("1111")
                }
            })
            .collect()
    }

    #[test]
    fn peak_activity_over_multiple_sequences() {
        let net = s27();
        let quiet: Vec<Bits> = (0..10).map(|_| Bits::from_str01("0000")).collect();
        let noisy = toggling_sequence(10);
        let both = [quiet.clone(), noisy.clone()];
        let peak_quiet = peak_activity(&net, &Bits::zeros(3), &[quiet]);
        let peak_both = peak_activity(&net, &Bits::zeros(3), &both);
        assert!(peak_both >= peak_quiet);
    }

    #[test]
    fn lane_packed_peak_matches_the_per_sequence_reference() {
        // More than 64 sequences (three lane passes, the last partial) of
        // unequal lengths, including empty and one-cycle sequences whose
        // SWA is never defined.
        let net = synth::generate(&synth::find("s298").unwrap());
        let mut rng = Rng::new(0xAC71);
        let mut bits = |n: usize| -> Bits { (0..n).map(|_| rng.bit()).collect() };
        let start = bits(net.num_dffs());
        let sequences: Vec<Vec<Bits>> = (0..150)
            .map(|i| {
                let len = if i % 37 == 0 { i % 2 } else { 1 + (i * 7) % 29 };
                (0..len).map(|_| bits(net.num_inputs())).collect()
            })
            .collect();
        for n in [1, 63, 64, 65, 128, 150] {
            let seqs = &sequences[..n];
            assert_eq!(
                peak_activity(&net, &start, seqs),
                scalar_peak_activity(&net, &start, seqs),
                "{n} sequences"
            );
        }
        // A lane stops counting when its sequence ends: the idle all-zero
        // input after an all-ones sequence would toggle every input.
        let ones: Bits = (0..net.num_inputs()).map(|_| true).collect();
        let quiet: Vec<Vec<Bits>> = (0..70).map(|i| vec![ones.clone(); 2 + i % 5]).collect();
        assert_eq!(
            peak_activity(&net, &start, &quiet),
            scalar_peak_activity(&net, &start, &quiet)
        );
        assert_eq!(peak_activity(&net, &start, &[]), 0.0);
    }

    #[test]
    fn activity_bounded_by_one() {
        let net = s27();
        let t = simulate_sequence(&net, &Bits::zeros(3), &toggling_sequence(50));
        for s in t.swa.iter().flatten() {
            assert!(*s >= 0.0 && *s <= 1.0);
        }
    }
}
