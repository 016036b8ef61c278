#![warn(missing_docs)]

//! Logic simulation for gate-level sequential netlists.
//!
//! Three simulation flavours, each matched to a consumer in the workspace:
//!
//! * **Sequential two-valued** ([`lanes::LaneSeqSim`], [`seq::SeqSim`]) —
//!   cycle-by-cycle functional simulation with switching activity, the
//!   engine of built-in test generation (Chapter 4 of the paper) and of the
//!   switching-activity monitor ([`activity`]). `LaneSeqSim` clocks up to
//!   64 independent trajectories per pass; `SeqSim` is its one-lane view.
//! * **Bit-parallel two-valued** ([`comb::eval_packed`]) — 64 patterns per
//!   machine word, the throughput kernel behind broadside fault simulation.
//! * **Scalar three-valued** ([`tv`]) — 0/1/X simulation used for primary
//!   input cube computation, necessary assignments and case analysis.
//!
//! Both two-valued flavours run on [`kernel`]: a cached, per-circuit
//! compiled bytecode program (fused superinstructions scheduled into
//! single-opcode runs, fault-site patch slots) that is pinned bit-identical
//! to the gate-walking interpreters ([`comb::eval_scalar`],
//! [`comb::eval_packed`]) by differential suites. The interpreters remain
//! the oracles. Three-valued simulation walks the netlist directly.
//!
//! [`Bits`] is the packed bitvector used for states, input vectors and
//! responses throughout the workspace.

pub mod activity;
mod bits;
pub mod comb;
pub mod kernel;
pub mod lanes;
pub mod reset;
pub mod seq;
pub mod tv;

pub use bits::Bits;
pub use tv::Trit;

// The scalar sequential oracle is shared with the integration tests, which
// name this crate `fbt_sim`; the alias lets the same file compile here.
#[cfg(test)]
extern crate self as fbt_sim;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod oracle;
