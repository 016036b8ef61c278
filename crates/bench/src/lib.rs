#![warn(missing_docs)]

//! Shared infrastructure for the experiment binaries.
//!
//! Every table of the paper's evaluation has a binary in `src/bin/`
//! (`table2_1` … `table4_4`). All binaries accept a scale as `argv[1]` or
//! the `FBT_SCALE` environment variable:
//!
//! * `smoke` — seconds, tiny circuits (CI);
//! * `default` — minutes, catalog circuits scaled down (the shipped
//!   EXPERIMENTS.md numbers);
//! * `paper` — the paper's parameters and circuit sizes (hours).

pub mod ch2;
pub mod ch3;
pub mod ch4;

use std::time::Duration;

use fbt_atpg::tpdf::TpdfConfig;
use fbt_atpg::PodemConfig;
use fbt_core::FunctionalBistConfig;
use fbt_netlist::synth::CircuitSpec;
use fbt_netlist::Netlist;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds; CI-sized.
    Smoke,
    /// Minutes; the shipped results.
    Default,
    /// The paper's parameters (hours).
    Paper,
}

impl Scale {
    /// Read the scale from `argv[1]` or `FBT_SCALE` (default: `default`).
    pub fn from_env() -> Scale {
        let arg = std::env::args()
            .nth(1)
            .or_else(|| std::env::var("FBT_SCALE").ok());
        match arg.as_deref() {
            Some("smoke") => Scale::Smoke,
            Some("paper") => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// Divisor applied to catalog circuit sizes.
    pub fn circuit_divisor(self) -> usize {
        match self {
            Scale::Smoke => 16,
            Scale::Default => 8,
            Scale::Paper => 1,
        }
    }

    /// The functional-BIST configuration for Chapter 4 experiments.
    pub fn bist_config(self) -> FunctionalBistConfig {
        match self {
            Scale::Smoke => FunctionalBistConfig::smoke(),
            Scale::Default => FunctionalBistConfig::scaled(),
            Scale::Paper => FunctionalBistConfig::paper(),
        }
    }

    /// The TPDF pipeline configuration for Chapter 2 experiments.
    pub fn tpdf_config(self) -> TpdfConfig {
        match self {
            Scale::Smoke => TpdfConfig {
                tf_podem: PodemConfig {
                    backtrack_limit: 128,
                    time_limit: Duration::from_millis(200),
                },
                heuristic_time_limit: Duration::from_millis(50),
                bnb: PodemConfig {
                    backtrack_limit: 1_000,
                    time_limit: Duration::from_millis(300),
                },
                sat_fallback: true,
                preflight: true,
                seed: 0x7BDF,
            },
            Scale::Default => TpdfConfig::default(),
            Scale::Paper => TpdfConfig {
                tf_podem: PodemConfig {
                    backtrack_limit: 128,
                    time_limit: Duration::from_secs(30),
                },
                heuristic_time_limit: Duration::from_secs(60),
                bnb: PodemConfig {
                    backtrack_limit: 1_000_000,
                    time_limit: Duration::from_secs(120),
                },
                sat_fallback: true,
                preflight: true,
                seed: 0x7BDF,
            },
        }
    }

    /// Path-enumeration cap for "enumerate all paths" experiments.
    pub fn path_cap(self) -> usize {
        match self {
            Scale::Smoke => 400,
            Scale::Default => 4_000,
            Scale::Paper => usize::MAX,
        }
    }

    /// The "at least this many detected faults" target of Table 2.2.
    pub fn detect_target(self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Default => 50,
            Scale::Paper => 1_000,
        }
    }

    /// The N sweep of Tables 3.2 / 3.3 (paper: 100, 200, …, 1000).
    pub fn n_sweep(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![5, 10],
            Scale::Default => (1..=10).map(|i| i * 10).collect(),
            Scale::Paper => (1..=10).map(|i| i * 100).collect(),
        }
    }
}

/// Generate a catalog circuit at this scale.
pub fn circuit(scale: Scale, name: &str) -> Netlist {
    let spec =
        fbt_netlist::synth::find(name).unwrap_or_else(|| panic!("unknown catalog circuit {name}"));
    fbt_netlist::synth::generate(&scaled_spec(scale, &spec))
}

/// The scaled spec for a catalog circuit.
pub fn scaled_spec(scale: Scale, spec: &CircuitSpec) -> CircuitSpec {
    spec.scaled(scale.circuit_divisor())
}

/// Fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", cols.join("  "));
        };
        line(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for r in &self.rows {
            line(r);
        }
    }
}

/// `mm:ss` rendering of a duration.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs();
    format!("{:02}:{:02}.{:03}", s / 60, s % 60, d.subsec_millis())
}

/// Two-decimal percent.
pub fn pct(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::Smoke.circuit_divisor() > Scale::Paper.circuit_divisor());
        assert_eq!(Scale::Paper.path_cap(), usize::MAX);
        assert_eq!(Scale::Paper.detect_target(), 1000);
    }

    #[test]
    fn circuit_lookup() {
        let net = circuit(Scale::Smoke, "s298");
        assert!(net.num_gates() > 0);
    }

    #[test]
    #[should_panic(expected = "unknown catalog circuit")]
    fn unknown_circuit_panics() {
        let _ = circuit(Scale::Smoke, "sNOPE");
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print("test");
    }

    #[test]
    fn duration_format() {
        assert_eq!(fmt_duration(Duration::from_millis(61_500)), "01:01.500");
    }
}
