#![warn(missing_docs)]

//! Static timing analysis and critical-path selection (paper Chapter 3).
//!
//! Traditional static timing analysis computes path delays with every line
//! unspecified; during test application, the logic values a test must assign
//! to detect a path delay fault *reduce* the delays that can actually be
//! exhibited. This crate implements the paper's refinement: the *input
//! necessary assignments* of a fault (from [`fbt_atpg::necessary`]) are fed
//! back into STA as case-analysis constraints — the `set_case_analysis`
//! mechanism of §3.3.1 — yielding recalculated delays closer to silicon and
//! a better-ranked set of selected critical paths.
//!
//! * [`DelayLibrary`] — rise/fall pin-to-pin delays for a 0.18 µm-style
//!   library (the inverter rise delay, 0.03 ns, is the paper's unit delay);
//! * [`sta`] — arrival times and K-most-critical path enumeration;
//! * [`case`] — case analysis: constants and direction constraints derived
//!   from input necessary assignments;
//! * [`select`] — the path-selection procedure of Fig. 3.1.

pub mod case;
mod delay;
pub mod select;
pub mod sta;

pub use delay::DelayLibrary;
pub use select::{select_paths, PathSelection, PathSelectionConfig, SelectedFault};
