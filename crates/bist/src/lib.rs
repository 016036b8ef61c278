#![warn(missing_docs)]

//! Cycle-accurate behavioural models of the built-in test generation
//! hardware of the paper's Chapter 4.
//!
//! The datapath structures have models here. The control FSM of Fig. 4.2 is
//! represented by its cycle budget ([`schedule`]); the cycle-accurate FSM
//! that checks that budget is a test oracle of the `fbt` package
//! (`tests/controller_oracle.rs`).
//!
//! * [`Lfsr`] — the n-stage linear feedback shift register (Fig. 4.3);
//! * [`Misr`] — the multiple-input signature register (Fig. 4.4);
//! * [`cube`] — computation of the primary input cube `C` that biases the
//!   pseudo-random sequence to avoid repeated synchronization (§4.3);
//! * [`Tpg`] — the test pattern generator: a fixed-width LFSR feeding a shift
//!   register whose bits drive the primary inputs directly (`C(i)=x`) or
//!   through `m`-input AND/OR biasing gates (Fig. 4.8);
//! * [`CycleCounter`] — the clock-cycle counter with test-apply and
//!   hold-enable signal generation (Figs. 4.6 and 4.11);
//! * [`holding`] — hold-set selection hardware: set counter plus decoder
//!   (Fig. 4.13) and the per-set gated-clock hold masks (Fig. 4.10);
//! * [`schedule`] — the controller's cycle budget (seed load, shift-register
//!   initialization, sequence application, circular shift);
//! * [`area`] — a gate-equivalent area model for a generic 0.18 µm-style
//!   library, pricing both circuits and the BIST hardware (the paper's
//!   Design Compiler runs).

pub mod area;
mod counter;
pub mod cube;
pub mod holding;
mod lfsr;
mod misr;
pub mod scan;
pub mod schedule;
mod tpg;
pub mod tpg73;
pub mod weighted;

pub use counter::CycleCounter;
pub use lfsr::Lfsr;
pub use misr::Misr;
pub use scan::ScanChains;
pub use tpg::{Tpg, TpgSpec};
pub use tpg73::{Tpg73, WideLfsr};
pub use weighted::{Weight, WeightedTpg};
