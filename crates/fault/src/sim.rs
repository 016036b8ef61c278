//! Coverage metrics over detection flags and n-detect profiles.
//!
//! The simulator itself lives in [`crate::engine`]: the
//! [`FaultSimEngine`](crate::engine::FaultSimEngine) trait, implemented by
//! the multi-threaded PPSFP engine
//! [`PackedParallelSim`](crate::engine::PackedParallelSim).

/// Fault coverage: detected / total, in percent.
pub fn coverage_percent(detected: &[bool]) -> f64 {
    if detected.is_empty() {
        return 0.0;
    }
    100.0 * detected.iter().filter(|&&d| d).count() as f64 / detected.len() as f64
}

/// N-detect coverage: the percentage of faults detected by at least `n`
/// different tests, from a profile produced by
/// [`crate::FaultSimEngine::n_detect_profile`].
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn n_detect_coverage(counts: &[usize], n: usize) -> f64 {
    assert!(n > 0, "n must be positive");
    if counts.is_empty() {
        return 0.0;
    }
    100.0 * counts.iter().filter(|&&c| c >= n).count() as f64 / counts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_percent_edges() {
        assert_eq!(coverage_percent(&[]), 0.0);
        assert_eq!(coverage_percent(&[true, true]), 100.0);
        assert_eq!(coverage_percent(&[true, false, false, false]), 25.0);
    }

    #[test]
    fn n_detect_coverage_edges() {
        assert_eq!(n_detect_coverage(&[], 1), 0.0);
        assert_eq!(n_detect_coverage(&[0, 1, 2, 3], 1), 75.0);
        assert_eq!(n_detect_coverage(&[0, 1, 2, 3], 3), 25.0);
    }
}
