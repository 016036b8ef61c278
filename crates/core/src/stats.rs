//! Instrumentation for the Chapter-4 generation loops.

use std::fmt;
use std::time::Duration;

/// Counters and per-phase wall-clock times collected by one generation run
/// (`generate_unconstrained`, `generate_constrained*`,
/// `improve_with_holding*`).
///
/// Counters are deterministic for a fixed configuration — including
/// `wasted_evals`, which depends only on the batch size, not on the thread
/// count. Wall-clock fields are measurements and vary run to run; equality
/// checks on outcomes should compare the semantic fields, not the stats.
#[derive(Debug, Clone, Default)]
pub struct GenerationStats {
    /// Candidate seeds consumed by the search (the serial loop's "tried").
    pub seeds_tried: usize,
    /// Candidates committed (selected seeds / segments).
    pub seeds_kept: usize,
    /// Speculative candidate evaluations performed (≥ `seeds_tried`).
    pub evals: usize,
    /// Evaluations whose results were discarded because an earlier
    /// candidate in the round committed first (`evals - seeds_tried`).
    pub wasted_evals: usize,
    /// Fault-simulation engine invocations actually issued. One grouped
    /// call evaluates a whole speculative round under every admissibility
    /// policy (signal-transition patterns included), so at batch > 1 this
    /// is far below [`GenerationStats::candidate_groups`]; at batch 1 the
    /// two counters are equal.
    pub fsim_calls: usize,
    /// Candidate test groups submitted to fault simulation (one per
    /// fault-simulated candidate, regardless of how the calls were
    /// batched). This is the counter `fsim_calls` used to conflate.
    pub candidate_groups: usize,
    /// Faults excluded from simulation because the lint pre-flight proved
    /// them untestable by construction (structurally constant or
    /// combinationally unobservable lines). They stay undetected in the
    /// outcome's full-length flags — exactly what simulating them would
    /// yield — so this only measures avoided work.
    pub faults_skipped_lint: usize,
    /// Logic-simulated clock cycles (TPG expansion + admissibility +
    /// trajectory replay).
    pub sim_cycles: usize,
    /// Compiled simulation kernels built while constructing this engine
    /// (global-cache misses attributable to it).
    pub kernel_builds: usize,
    /// Compiled-kernel cache hits while constructing this engine (a
    /// structurally identical circuit's kernel was reused).
    pub kernel_cache_hits: usize,
    /// Wall time spent compiling kernels for this engine (zero on hits).
    pub kernel_build_wall: Duration,
    /// Wall time in the seed-selection / sequence-construction phase.
    pub select_wall: Duration,
    /// Wall time in the reverse-compaction phase (unconstrained method).
    pub compact_wall: Duration,
    /// Wall time of the whole run.
    pub total_wall: Duration,
}

impl GenerationStats {
    /// Fraction of speculative evaluations that were wasted, in `[0, 1]`.
    pub fn waste_ratio(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.wasted_evals as f64 / self.evals as f64
        }
    }

    /// Accumulate another run's counters and times (used by the holding
    /// stage, which performs many construction runs).
    pub fn absorb(&mut self, other: &GenerationStats) {
        self.seeds_tried += other.seeds_tried;
        self.seeds_kept += other.seeds_kept;
        self.evals += other.evals;
        self.wasted_evals += other.wasted_evals;
        self.fsim_calls += other.fsim_calls;
        self.candidate_groups += other.candidate_groups;
        // The pre-flight verdict is a property of the circuit, not of the
        // run: absorbing another run over the same circuit must not double
        // the count.
        self.faults_skipped_lint = self.faults_skipped_lint.max(other.faults_skipped_lint);
        self.sim_cycles += other.sim_cycles;
        // Kernel compilation is likewise an engine property: runs sharing
        // one engine share one (cached) kernel, so take the max, not a sum.
        self.kernel_builds = self.kernel_builds.max(other.kernel_builds);
        self.kernel_cache_hits = self.kernel_cache_hits.max(other.kernel_cache_hits);
        self.kernel_build_wall = self.kernel_build_wall.max(other.kernel_build_wall);
        self.select_wall += other.select_wall;
        self.compact_wall += other.compact_wall;
        self.total_wall += other.total_wall;
    }

    /// Render only the deterministic counters as a JSON object — the subset
    /// that is bit-identical for a fixed `(circuit, config, batch)`
    /// regardless of thread count or host speed. Wall times and the
    /// process-global kernel-cache counters are excluded. This exact byte
    /// format is pinned by the committed `golden_ch4` fixtures and is what
    /// `fbt-serve` result artifacts embed.
    pub fn counters_json(&self) -> String {
        format!(
            "{{\"seeds_tried\":{},\"seeds_kept\":{},\"evals\":{},\"wasted_evals\":{},\
             \"fsim_calls\":{},\"candidate_groups\":{},\"faults_skipped_lint\":{},\
             \"sim_cycles\":{}}}",
            self.seeds_tried,
            self.seeds_kept,
            self.evals,
            self.wasted_evals,
            self.fsim_calls,
            self.candidate_groups,
            self.faults_skipped_lint,
            self.sim_cycles,
        )
    }

    /// Render as a JSON object (no external dependencies; all fields are
    /// numbers, durations in seconds).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seeds_tried\":{},\"seeds_kept\":{},\"evals\":{},\"wasted_evals\":{},\
             \"fsim_calls\":{},\"candidate_groups\":{},\"faults_skipped_lint\":{},\
             \"sim_cycles\":{},\"kernel_builds\":{},\"kernel_cache_hits\":{},\
             \"kernel_build_wall_s\":{:.6},\"select_wall_s\":{:.6},\
             \"compact_wall_s\":{:.6},\"total_wall_s\":{:.6}}}",
            self.seeds_tried,
            self.seeds_kept,
            self.evals,
            self.wasted_evals,
            self.fsim_calls,
            self.candidate_groups,
            self.faults_skipped_lint,
            self.sim_cycles,
            self.kernel_builds,
            self.kernel_cache_hits,
            self.kernel_build_wall.as_secs_f64(),
            self.select_wall.as_secs_f64(),
            self.compact_wall.as_secs_f64(),
            self.total_wall.as_secs_f64(),
        )
    }
}

impl fmt::Display for GenerationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seeds {}/{} kept, {} evals ({} wasted, {:.0}%), {} fsim calls \
             ({} groups), {} faults lint-skipped, {} sim cycles, \
             {} kernel builds ({} cached), {:.3}s",
            self.seeds_kept,
            self.seeds_tried,
            self.evals,
            self.wasted_evals,
            100.0 * self.waste_ratio(),
            self.fsim_calls,
            self.candidate_groups,
            self.faults_skipped_lint,
            self.sim_cycles,
            self.kernel_builds,
            self.kernel_cache_hits,
            self.total_wall.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waste_ratio_handles_empty_runs() {
        assert_eq!(GenerationStats::default().waste_ratio(), 0.0);
        let s = GenerationStats {
            evals: 4,
            wasted_evals: 1,
            ..GenerationStats::default()
        };
        assert!((s.waste_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = GenerationStats {
            seeds_tried: 3,
            evals: 5,
            fsim_calls: 5,
            ..GenerationStats::default()
        };
        let b = GenerationStats {
            seeds_tried: 2,
            evals: 2,
            fsim_calls: 2,
            wasted_evals: 1,
            ..GenerationStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.seeds_tried, 5);
        assert_eq!(a.evals, 7);
        assert_eq!(a.fsim_calls, 7);
        assert_eq!(a.wasted_evals, 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = GenerationStats::default().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"seeds_tried\":0"));
        assert!(j.contains("\"total_wall_s\":0.000000"));
    }
}
