#![warn(missing_docs)]

//! # fbt — built-in generation of functional broadside tests
//!
//! A Rust reproduction of *"Built-in generation of functional broadside
//! tests"* (DATE 2011; archival superset: B. Yao, Purdue PhD dissertation,
//! 2013), covering deterministic broadside test generation for transition
//! path delay faults, static-timing-analysis-based path selection refined by
//! input necessary assignments, and — the headline contribution — built-in
//! (on-chip) generation of functional broadside tests under primary-input
//! constraints, with an optional state-holding DFT extension.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`netlist`] — gate-level circuits, `.bench` parsing, benchmark catalog
//! * [`sim`] — bit-parallel and three-valued logic simulation
//! * [`fault`] — transition / path delay fault models and fault simulation
//! * [`atpg`] — two-frame implications, PODEM, TPDF test generation
//! * [`timing`] — STA, case analysis, critical-path selection
//! * [`bist`] — LFSR/MISR/TPG hardware models, state holding, area model
//! * [`sat`] — CDCL SAT solver and time-frame-expansion CNF encoding, for
//!   untestability proofs and reachability certification
//! * [`lint`] — static design-rule analysis over netlists and
//!   PI-constraint sets, plus the generators' fault pre-flight
//! * [`core`] — functional broadside BIST generation (the paper's method)
//!
//! # Quickstart
//!
//! ```
//! use fbt::core::{FunctionalBistConfig, generate_unconstrained};
//! use fbt::netlist::s27;
//!
//! let circuit = s27();
//! let config = FunctionalBistConfig::smoke();
//! let outcome = generate_unconstrained(&circuit, &config);
//! assert!(outcome.fault_coverage() > 0.0);
//! ```

pub use fbt_atpg as atpg;
pub use fbt_bist as bist;
pub use fbt_core as core;
pub use fbt_fault as fault;
pub use fbt_lint as lint;
pub use fbt_netlist as netlist;
pub use fbt_sat as sat;
pub use fbt_sim as sim;
pub use fbt_timing as timing;

pub mod prelude {
    //! The names almost every user of the workspace needs, in one import.
    //!
    //! ```
    //! use fbt::prelude::*;
    //!
    //! let net = fbt::netlist::s27();
    //! let faults = all_transition_faults(&net);
    //! let mut engine = PackedParallelSim::new(&net);
    //! let mut detected = vec![false; faults.len()];
    //! engine.simulate(
    //!     TestSet::Broadside(&[]),
    //!     &faults,
    //!     &mut detected,
    //!     &FaultSimOptions::new(),
    //! );
    //! ```

    pub use fbt_core::{
        generate_constrained, generate_unconstrained, improve_with_holding, swafunc, Error,
        FunctionalBistConfig, GenerationStats, SearchOptions,
    };
    pub use fbt_fault::{
        all_transition_faults, collapse, BroadsideTest, FaultSimEngine, FaultSimOptions,
        PackedParallelSim, TestGroup, TestSet, TransitionFault, TwoPatternTest,
    };
    pub use fbt_netlist::{Netlist, NetlistBuilder, NodeId};
    pub use fbt_sat::{solve_transition_fault, DetectionVerdict, Solver};
    pub use fbt_sim::Bits;
}
