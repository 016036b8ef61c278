#![warn(missing_docs)]

//! Built-in generation of functional broadside tests — the paper's method.
//!
//! Functional broadside tests are scan-based two-pattern tests whose scan-in
//! state is *reachable*: test application then keeps the circuit in states it
//! can visit during functional operation, which eliminates overtesting and
//! bounds test power by functional power (paper §4.1). This crate implements
//! the full on-chip generation flow:
//!
//! * [`extract`] — obtaining a functional broadside test from every two
//!   consecutive clock cycles of an on-chip primary-input sequence (§4.3);
//! * [`driver`] — embedded-block modelling: a [`driver::DrivingBlock`]
//!   constrains the target's primary inputs, and its functional input
//!   sequences define the peak switching activity `SWAfunc` (§4.4);
//! * [`engine`] — the policy-driven [`engine::GenerationEngine`] that owns
//!   the seed-search loop shared by all three Chapter-4 generation modes
//!   (candidate draw, speculative batch evaluation, admissibility, fault
//!   simulation, compaction, stats);
//! * [`policy`] — the [`policy::AdmissibilityPolicy`] implementations: the
//!   `SWAfunc` rule of the constrained method and the unbounded baseline;
//! * [`progress`] — the [`progress::Progress`] handle for live counters and
//!   cooperative cancellation of long runs (used by the `fbt-serve` job
//!   service);
//! * [`unconstrained`] — the baseline method of \[73\] (single-segment
//!   sequences, seed selection, forward-looking compaction);
//! * [`constrained`] — **the contribution**: multi-segment primary-input
//!   sequences whose every clock cycle respects `SWAfunc` (Fig. 4.9);
//! * [`holding`] — the optional state-holding DFT that recovers coverage by
//!   introducing controlled unreachable states (§4.5), with the binary-tree
//!   hold-set selection of Fig. 4.12;
//! * [`stp`] — the signal-transition-pattern deviation metric sketched as
//!   future work (§5.1, \[90\]);
//! * [`experiment`] — the harness producing the rows of Tables 4.2–4.4;
//! * [`certify`] — SAT-backed bounded-reachability certification that every
//!   generated test's scan-in state really is reachable from reset within a
//!   cycle bound, independently of the simulator.

pub mod certify;
mod config;
pub mod constrained;
pub mod domains;
pub mod driver;
pub mod engine;
pub mod experiment;
pub mod extract;
pub mod holding;
pub mod outcome;
pub mod overtest;
pub mod policy;
mod preflight;
pub mod progress;
pub mod search;
pub mod session;
pub mod stats;
pub mod stp;
pub mod unconstrained;

pub use certify::{certify_state, certify_tests, CertificationReport, TestCertificate};
pub use config::FunctionalBistConfig;
pub use constrained::{
    generate_constrained, generate_constrained_from, generate_constrained_watched,
    generate_constrained_with_library, ConstrainedOutcome,
};
pub use driver::{swafunc, DrivingBlock};
pub use engine::{GenerationEngine, OwnedTests, SeedSource, StateOverlay, TpgSeedSource};
pub use fbt_netlist::Error;
pub use holding::{improve_with_holding, improve_with_holding_greedy, HoldingOutcome};
pub use outcome::{MultiSegmentSequence, OutcomeSummary, Segment};
pub use overtest::{estimate_overtesting, OvertestReport};
pub use policy::{AdmissibilityPolicy, SwaRule, Unbounded};
pub use progress::{Progress, ProgressPhase, ProgressSnapshot};
pub use search::SearchOptions;
pub use session::{run_on_hardware, SessionResult};
pub use stats::GenerationStats;
pub use unconstrained::{
    generate_unconstrained, generate_unconstrained_watched, GenerationOutcome,
};
