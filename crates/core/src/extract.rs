//! Extracting functional broadside tests from on-chip sequences (paper §4.3).
//!
//! A primary-input sequence `P = p(0) … p(L-1)` applied from a reachable
//! state takes the circuit through states `S = s(0) … s(L)`. Any two
//! consecutive cycles define the functional broadside test
//! `t(i) = <s(i), p(i), s(i+1), p(i+1)>`. To avoid hardware that would
//! rewind overlapping tests, tests are applied every `2^q` cycles; the paper
//! uses `q = 1`, i.e. `t(0), t(2), t(4), …`.

use fbt_fault::{BroadsideTest, TwoPatternTest};
use fbt_sim::Bits;

/// Extract the non-overlapping functional broadside tests (`q = 1`) from a
/// primary-input sequence and its recorded state sequence.
///
/// `states` must have length `pis.len() + 1` (the trajectory invariant).
/// Odd-length sequences lose their final cycle: a test needs both `p(i)` and
/// `p(i+1)`.
///
/// # Panics
///
/// Panics if `states.len() != pis.len() + 1`.
pub fn functional_tests(pis: &[Bits], states: &[Bits]) -> Vec<BroadsideTest> {
    assert_eq!(states.len(), pis.len() + 1, "trajectory length mismatch");
    (0..pis.len().saturating_sub(1))
        .step_by(2)
        .map(|i| BroadsideTest::new(states[i].clone(), pis[i].clone(), pis[i + 1].clone()))
        .collect()
}

/// Extract two-pattern tests with *explicit* second states — required when
/// the trajectory was simulated with state holding, so that `s(i+1)` can
/// deviate from the natural broadside response (paper §4.5.1).
///
/// # Panics
///
/// Panics if `states.len() != pis.len() + 1`.
pub fn held_tests(pis: &[Bits], states: &[Bits]) -> Vec<TwoPatternTest> {
    assert_eq!(states.len(), pis.len() + 1, "trajectory length mismatch");
    (0..pis.len().saturating_sub(1))
        .step_by(2)
        .map(|i| {
            TwoPatternTest::new(
                states[i].clone(),
                pis[i].clone(),
                states[i + 1].clone(),
                pis[i + 1].clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::s27;
    use fbt_sim::seq::simulate_sequence;

    fn pis(n: usize) -> Vec<Bits> {
        (0..n)
            .map(|i| Bits::from_bools(&[(i % 2) == 0, (i % 3) == 0, false, true]))
            .collect()
    }

    #[test]
    fn test_count_every_two_cycles() {
        let net = s27();
        let p = pis(10);
        let t = simulate_sequence(&net, &Bits::zeros(3), &p);
        let tests = functional_tests(&p, &t.states);
        assert_eq!(tests.len(), 5);
    }

    #[test]
    fn scan_in_states_are_on_the_trajectory() {
        // The defining property of functional broadside tests: every scan-in
        // state is reachable (it is literally a traversed state).
        let net = s27();
        let p = pis(12);
        let t = simulate_sequence(&net, &Bits::zeros(3), &p);
        let tests = functional_tests(&p, &t.states);
        for (k, test) in tests.iter().enumerate() {
            assert_eq!(test.scan_in, t.states[2 * k]);
            // And the broadside second state equals the traversed next state.
            assert_eq!(test.second_state(&net), t.states[2 * k + 1]);
        }
    }

    #[test]
    fn odd_length_sequence_drops_last_cycle() {
        let net = s27();
        let p = pis(7);
        let t = simulate_sequence(&net, &Bits::zeros(3), &p);
        let tests = functional_tests(&p, &t.states);
        assert_eq!(tests.len(), 3); // t(0), t(2), t(4); p(6) unusable
    }

    #[test]
    fn held_tests_carry_trajectory_states() {
        let net = s27();
        let p = pis(8);
        let t = simulate_sequence(&net, &Bits::zeros(3), &p);
        let held = held_tests(&p, &t.states);
        let plain = functional_tests(&p, &t.states);
        assert_eq!(held.len(), plain.len());
        for (h, b) in held.iter().zip(&plain) {
            assert_eq!(h.s1, b.scan_in);
            assert_eq!(h.s2, b.second_state(&net));
        }
    }

    #[test]
    #[should_panic(expected = "trajectory length mismatch")]
    fn mismatched_lengths_panic() {
        let p = pis(4);
        let states = vec![Bits::zeros(3); 4];
        let _ = functional_tests(&p, &states);
    }
}
