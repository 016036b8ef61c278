//! `fbt-serve`: a dependency-free HTTP/1.1 job service over the generation
//! engine.
//!
//! The crate turns the Chapter-4 generation stack ([`fbt_core`]'s
//! `GenerationEngine` entry points), the netlist linter, and the TPDF ATPG
//! pipeline into a long-lived service using nothing but `std::net`:
//!
//! - [`http`] — a hand-rolled HTTP/1.1 layer (`Content-Length` framing,
//!   keep-alive, one write per message, shared by server, load generator,
//!   and tests);
//! - [`store`] — a content-addressed circuit store keyed by the structural
//!   FNV digest from `fbt_sim::kernel`, deduplicating uploads and caching
//!   lint reports per digest;
//! - [`jobs`] — job specs, the `Queued → Running → Done/Failed/Cancelled`
//!   lifecycle with exactly-once commit accounting, and execution through
//!   the same library calls the CLI tools make;
//! - [`pool`] — a work-stealing shard pool (per-shard deques, back-steals)
//!   with a draining shutdown and a job registry that keeps the last 256
//!   finished jobs;
//! - [`api`] — the endpoint surface and the accept loop.
//!
//! The load generator (`src/bin/loadgen.rs`) replays concurrent request
//! mixes over the built-in 18-circuit catalog and emits `BENCH_serve.json`
//! with latency percentiles, throughput, and cache hit rates.
//!
//! **Determinism contract:** the service layer only schedules; outcomes
//! come from the same engine entry points with the same configs, so a
//! result fetched over HTTP is byte-identical to the direct library call —
//! the serve end-to-end tests assert this against the committed
//! `golden_ch4` fixtures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod jobs;
pub mod pool;
pub mod store;

pub use api::{Server, ServerState};
pub use jobs::{Job, JobKind, JobSpec, JobStatus, Method};
pub use pool::Pool;
pub use store::ContentStore;
