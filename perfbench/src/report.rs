//! The run result: counts, output-check failures and named metrics, printed
//! as the last line of standard output.

use std::time::{Duration, Instant};

/// What one benchmark run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (generation calls, grading passes, served jobs).
    pub attempted: usize,
    /// Operations that failed or whose output check failed.
    pub failed: usize,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a metric by name with its unit.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("metric {name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Count one operation and, if its check failed, record why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Record a failed output check without counting an operation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Run the set-up several times and keep the last result; the set-up time
/// is the median over the repetitions, so a later change that moves work
/// into set-up shows. Cheap set-ups repeat more often (at least
/// `SETUP_MIN_REPS`, more while they take under a second in total) so that
/// their median is not one scheduler hiccup. `last` tells the closure
/// whether its result is kept; the others go to `dispose`, untimed.
pub fn repeated_setup<S>(mut setup: impl FnMut(bool) -> S, mut dispose: impl FnMut(S)) -> (S, f64) {
    const SETUP_MIN_REPS: usize = 3;
    const SETUP_MAX_REPS: usize = 15;
    const SETUP_BUDGET_S: f64 = 1.0;
    let mut times: Vec<f64> = Vec::new();
    loop {
        let total: f64 = times.iter().sum();
        let reps = times.len();
        // Predict whether another repetition fits before deciding that this
        // one is the last.
        let next_fits = |n: usize, t: f64| {
            n + 1 < SETUP_MIN_REPS
                || (n + 1 < SETUP_MAX_REPS && t + 2.0 * median(&times).max(1e-9) < SETUP_BUDGET_S)
        };
        let last = !next_fits(reps, total);
        let (s, d) = timed(|| setup(last));
        times.push(d.as_secs_f64());
        if last {
            return (s, median(&times));
        }
        dispose(s);
    }
}

/// The hardware thread count the engines resolve `threads = 0` to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
