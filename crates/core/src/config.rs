//! Configuration for built-in test generation experiments.

use crate::search::SearchOptions;

/// All tunables of the generation flow.
///
/// The paper's experiment parameters (§4.6) are available as
/// [`FunctionalBistConfig::paper`]; scaled-down presets keep CI fast.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalBistConfig {
    /// LFSR width `NLFSR` (32 in the paper).
    pub lfsr_width: u32,
    /// Biasing gate fan-in `m` (3 in the paper).
    pub m: usize,
    /// Primary-input sequence length `L` per segment attempt (must be even).
    pub seq_len: usize,
    /// Unconstrained method: stop after this many consecutive useless seeds
    /// (`U`).
    pub useless_seed_limit: usize,
    /// Safety cap on the total number of seeds tried.
    pub max_seeds: usize,
    /// Constrained method: consecutive seed failures ending a sequence (`R`,
    /// 3 in the paper).
    pub segment_failure_limit: usize,
    /// Constrained method: consecutive failed sequence attempts ending the
    /// procedure (`Q`, 5 in the paper).
    pub attempt_failure_limit: usize,
    /// Number of functional input sequences used to estimate `SWAfunc`
    /// (30 in the paper).
    pub func_sequences: usize,
    /// Length of each functional input sequence (30 000 in the paper).
    pub func_len: usize,
    /// State holding period exponent `h`: hold every `2^h` cycles (2 in the
    /// paper: every 4 cycles).
    pub hold_period_log2: u32,
    /// Height `H` of the binary set-selection tree (6 in the paper).
    pub hold_tree_height: u32,
    /// Master seed for all pseudo-random decisions.
    pub master_seed: u64,
    /// Skip faults that static lint analysis proves untestable by
    /// construction (structurally constant or combinationally unobservable
    /// lines) before any simulation runs. Sound: skipped faults are
    /// undetectable under every test, so the outcome — seeds, sequences and
    /// the full-length detection flags — is bit-identical either way; only
    /// the simulated fault count shrinks (see
    /// [`crate::GenerationStats::faults_skipped_lint`]).
    pub lint_preflight: bool,
    /// Speculative seed-search tunables (batch size, worker threads). Any
    /// setting produces bit-identical outcomes; this only trades wasted
    /// speculative evaluations for wall-clock time.
    pub search: SearchOptions,
}

impl FunctionalBistConfig {
    /// The parameters of the paper's §4.6 experiments. Multi-hour runs on
    /// large circuits; prefer [`FunctionalBistConfig::default`] for routine use.
    pub fn paper() -> Self {
        FunctionalBistConfig {
            lfsr_width: 32,
            m: 3,
            seq_len: 18_000,
            useless_seed_limit: 10,
            max_seeds: 100_000,
            segment_failure_limit: 3,
            attempt_failure_limit: 5,
            func_sequences: 30,
            func_len: 30_000,
            hold_period_log2: 2,
            hold_tree_height: 6,
            master_seed: 0x0FB7_2011,
            lint_preflight: true,
            search: SearchOptions::default(),
        }
    }

    /// Scaled-down parameters suitable for benchmark-catalog circuits on a
    /// laptop (the `ExperimentScale::Default` of DESIGN.md).
    pub fn scaled() -> Self {
        FunctionalBistConfig {
            seq_len: 600,
            useless_seed_limit: 6,
            max_seeds: 400,
            func_sequences: 8,
            func_len: 1_500,
            hold_tree_height: 3,
            ..FunctionalBistConfig::paper()
        }
    }

    /// Minimal parameters for unit tests and doctests.
    pub fn smoke() -> Self {
        FunctionalBistConfig {
            seq_len: 60,
            useless_seed_limit: 3,
            max_seeds: 40,
            func_sequences: 2,
            func_len: 120,
            hold_tree_height: 2,
            ..FunctionalBistConfig::paper()
        }
    }

    /// Validate invariants (even `L`, non-zero budgets, a tabulated LFSR
    /// width).
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations; called by the generation entry
    /// points.
    pub fn validate(&self) {
        assert!(
            self.seq_len >= 2 && self.seq_len.is_multiple_of(2),
            "L must be even and >= 2"
        );
        assert!(self.max_seeds > 0, "seed budget must be positive");
        assert!(self.useless_seed_limit > 0, "U must be positive");
        assert!(self.segment_failure_limit > 0, "R must be positive");
        assert!(self.attempt_failure_limit > 0, "Q must be positive");
        // The hold schedule tests `c & ((1 << h) - 1)` on a `u64` counter.
        assert!(
            (1..64).contains(&self.hold_period_log2),
            "h must be in 1..64"
        );
        assert!(self.m >= 2, "m must be >= 2");
        assert!(
            fbt_bist::Lfsr::new(self.lfsr_width, 1).is_some(),
            "no maximal-length LFSR of width {} is tabulated",
            self.lfsr_width
        );
        self.search.validate();
    }
}

impl Default for FunctionalBistConfig {
    fn default() -> Self {
        FunctionalBistConfig::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        FunctionalBistConfig::paper().validate();
        FunctionalBistConfig::scaled().validate();
        FunctionalBistConfig::smoke().validate();
    }

    #[test]
    fn paper_matches_section_4_6() {
        let c = FunctionalBistConfig::paper();
        assert_eq!(c.lfsr_width, 32);
        assert_eq!(c.m, 3);
        assert_eq!(c.segment_failure_limit, 3);
        assert_eq!(c.attempt_failure_limit, 5);
        assert_eq!(c.func_sequences, 30);
        assert_eq!(c.func_len, 30_000);
        assert_eq!(c.hold_period_log2, 2);
        assert_eq!(c.hold_tree_height, 6);
    }

    #[test]
    #[should_panic(expected = "L must be even")]
    fn odd_length_rejected() {
        let c = FunctionalBistConfig {
            seq_len: 7,
            ..FunctionalBistConfig::smoke()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "h must be in 1..64")]
    fn hold_period_beyond_the_counter_rejected() {
        let c = FunctionalBistConfig {
            hold_period_log2: 64,
            ..FunctionalBistConfig::smoke()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "no maximal-length LFSR of width 40 is tabulated")]
    fn untabulated_lfsr_width_rejected() {
        let c = FunctionalBistConfig {
            lfsr_width: 40,
            ..FunctionalBistConfig::smoke()
        };
        c.validate();
    }
}
