#![warn(missing_docs)]

//! Deterministic broadside test generation (paper Chapters 2 and 3
//! substrate).
//!
//! Everything here works on the *two-frame model* of a broadside test: the
//! combinational logic is conceptually unrolled twice, with the second
//! frame's present state tied to the first frame's next state (paper §1.3).
//!
//! * [`frames`] — the two-frame value model: three-valued good simulation,
//!   per-fault faulty-plane simulation, D-frontier objectives;
//! * [`TestCube`] — a partially specified broadside test `<s1, v1, v2>`;
//! * [`implic`] — a forward/backward implication engine with a trail, used
//!   to compute necessary assignments;
//! * [`necessary`] — necessary assignments and *input necessary assignments*
//!   for transition faults and transition path delay faults (§2.3.2, §3.2);
//! * [`podem`] — a PODEM-style deterministic test generator for transition
//!   faults under broadside tests (§2.3.1), supporting a fixed base cube so
//!   that tests can be *extended* fault after fault;
//! * [`tpdf`] — the five-sub-procedure pipeline for transition path delay
//!   faults: transition-fault test generation, preprocessing, fault
//!   simulation, dynamic-compaction heuristic, and the complete
//!   branch-and-bound (§2.3, Figs. 2.2 / 2.3), followed by a fallback to
//!   `fbt-sat`'s complete time-frame-expansion search for aborted faults,
//!   the source of UNSAT *untestability proofs*.

pub mod frames;
pub mod implic;
pub mod necessary;
pub mod podem;
mod test_cube;
pub mod tpdf;

pub use frames::{var_of, Frame, TwoFrame};
pub use podem::{AtpgOutcome, Podem, PodemConfig};
pub use test_cube::TestCube;
