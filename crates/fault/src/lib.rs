#![warn(missing_docs)]

//! Delay fault models and broadside fault simulation.
//!
//! Implements the fault-model layer of the paper:
//!
//! * [`TransitionFault`] — slow-to-rise / slow-to-fall faults on every line
//!   (paper §1.1, Fig. 1.1), with structural equivalence collapsing;
//! * [`BroadsideTest`] — scan-based two-pattern tests `<s1, v1, s2, v2>`
//!   where `s2` is the circuit's response to `<s1, v1>` (paper §1.3,
//!   Fig. 1.10);
//! * [`engine`] — the [`FaultSimEngine`] trait over bit-parallel
//!   (64 tests/word), event-driven, fault-dropping transition-fault
//!   simulation, implemented by the multi-threaded PPSFP engine
//!   [`PackedParallelSim`] on the compiled kernel;
//! * [`path`] — structural paths, path delay faults and the *transition path
//!   delay fault* model of Chapter 2, under which a path delay fault is
//!   detected only if **all** transition faults along the path are detected
//!   by the same test.

mod broadside;
pub mod engine;
pub mod path;
pub mod sim;
mod transition;

pub use broadside::{BroadsideTest, TwoPatternTest};
pub use engine::{
    DetectionMatrix, FaultSimEngine, FaultSimOptions, PackedParallelSim, SimOutcome, TestGroup,
    TestSet,
};
pub use path::{Path, TransitionPathDelayFault};
pub use sim::{coverage_percent, n_detect_coverage};
pub use transition::{all_transition_faults, collapse, Transition, TransitionFault};

// The scalar fault-simulation oracle is shared with the integration tests,
// which name this crate `fbt_fault`; the alias lets the same file compile
// here.
#[cfg(test)]
extern crate self as fbt_fault;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod oracle;
