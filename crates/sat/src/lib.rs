#![warn(missing_docs)]

//! A from-scratch SAT engine for formal reasoning about broadside tests.
//!
//! The rest of the workspace produces *constructive* evidence: a generated
//! test detects its fault because simulation says so; a scan-in state is
//! reachable because a trajectory visited it. This crate supplies the
//! negative direction — machine-checkable proofs that no test or no input
//! sequence exists — via two layers:
//!
//! * [`solver`] — a deterministic CDCL SAT solver ([`Solver`]): two-watched-
//!   literal propagation, first-UIP clause learning, VSIDS-style activities
//!   with index tie-breaks, Luby restarts. Identical input yields identical
//!   [`SolverStats`], a property the differential test suite asserts.
//! * [`cnf`] / [`unroll`] — Tseitin encodings of netlist gates
//!   ([`CnfFormula::encode_gates`], the one place a netlist becomes
//!   clauses) and time-frame expansion ([`Unroller`]): frames are stitched
//!   by aliasing each flip-flop's present-state literal to its D-driver's
//!   literal one frame earlier, and launch/capture/functional-constraint
//!   conditions are layered as unit clauses.
//!
//! On top sit the query modules consumed elsewhere in the workspace:
//!
//! * [`broadside`] — two-frame transition-fault and transition-path-delay-
//!   fault test generation with UNSAT untestability proofs (used by
//!   `fbt-atpg`'s TPDF pipeline as its SAT fallback);
//! * [`reach`] — bounded reachability of scan-in states from the all-0
//!   reset under constrained primary inputs (used by `fbt-core`'s
//!   functional-broadside certifier);
//! * [`miter`] — single-frame XOR-miter equivalence of two netlists (used
//!   by `fbt-lint`'s certified autofixes).

pub mod broadside;
pub mod cnf;
pub mod lit;
pub mod miter;
pub mod reach;
pub mod solver;
pub mod unroll;

pub use broadside::{solve_tpdf, solve_transition_fault, DetectionVerdict};
pub use cnf::CnfFormula;
pub use lit::{Lit, Var};
pub use miter::{check_equivalence, Miter, MiterError, MiterOutcome, MiterWitness};
pub use reach::{bounded_reach, Reachability};
pub use solver::{Model, SatResult, Solver, SolverStats};
pub use unroll::{FrameState, Unroller};
