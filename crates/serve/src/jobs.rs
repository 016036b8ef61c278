//! Job specifications, lifecycle, and execution.
//!
//! A job is one unit of service work: a generation run (any of the three
//! Chapter-4 modes), a lint pass, or a TPDF ATPG pipeline run over a stored
//! circuit. Jobs are submitted over HTTP, queued into the shard pool, and
//! executed by pool workers through exactly the same library entry points
//! the CLI tools use — so a job's result artifact embeds the same
//! `summary_json()` / `counters_json()` byte strings the golden fixtures
//! pin, and HTTP-served outcomes are bit-identical to direct engine calls.
//!
//! Lifecycle: `Queued → Running → {Done, Failed}`, or `Queued → Cancelled`
//! when a cancellation lands before a worker claims the job. Cancelling a
//! *running* job flips its [`Progress`] flag instead: the engine returns
//! early at the next round boundary and the job still commits (Done, with
//! `"cancelled":true` in the artifact). Every terminal transition is a
//! *commit* and is counted; the pool asserts each job commits exactly once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fbt_core::driver::{swafunc, DrivingBlock};
use fbt_core::{
    generate_constrained_watched, generate_unconstrained_watched, improve_with_holding,
    FunctionalBistConfig, Progress, SearchOptions,
};
use fbt_netlist::json::{escape, Json, ObjWriter};

use crate::store::{digest_hex, CircuitEntry, ContentStore};

/// Largest `batch` and `threads` a job spec may ask for. A batch of 64
/// fills one lane word of the seed search; a fixed thread cap keeps the
/// spec contract the same on every host and bounds the per-worker fault
/// simulation tables a job can allocate.
const MAX_SEARCH_WIDTH: u64 = 64;

/// Largest `max_paths` a job spec may ask for. Path enumeration stops only
/// at this cap, so without it one spec could ask for every path of a
/// reconvergent upload.
const MAX_PATHS: u64 = 4096;

/// The type [`field`] names for the unsigned-integer keys.
const UINT: &str = "an unsigned 64-bit integer";

/// Read the optional key `key` of a job spec through `read`. An absent
/// key is `None`; a present value that `read` refuses is an error naming
/// the `expected` type.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => read(x)
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be {expected}")),
    }
}

/// What a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A Chapter-4 generation run.
    Generate,
    /// A lint pass (served from the store's per-digest cache).
    Lint,
    /// The TPDF ATPG pipeline.
    Atpg,
}

impl JobKind {
    /// The lowercase wire keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            JobKind::Generate => "generate",
            JobKind::Lint => "lint",
            JobKind::Atpg => "atpg",
        }
    }
}

/// Which generation mode a `generate` job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The §4.3 baseline.
    Unconstrained,
    /// The §4.4 constrained method.
    Constrained,
    /// Constrained plus the §4.5 state-holding stage.
    Holding,
}

impl Method {
    /// The lowercase wire keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Method::Unconstrained => "unconstrained",
            Method::Constrained => "constrained",
            Method::Holding => "holding",
        }
    }
}

/// A validated job request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Store key of the subject circuit (name or hex digest).
    pub circuit: String,
    /// Generation mode (`generate` only).
    pub method: Method,
    /// Config preset name: `smoke`, `scaled`, or `paper`.
    pub preset: String,
    /// Speculative search settings.
    pub search: SearchOptions,
    /// `SWAfunc` multiplier for the bound (`constrained` / `holding`).
    pub swa_scale: f64,
    /// Master-seed override.
    pub seed: Option<u64>,
    /// Path-enumeration cap (`atpg` only).
    pub max_paths: usize,
    /// Run the SAT-certified autofix engine and publish the repaired
    /// netlist as a content-addressed store artifact (`lint` only).
    pub fix: bool,
}

impl JobSpec {
    /// Parse and validate a request body. Every key is optional except
    /// `circuit`; a key that is present with a value of the wrong type is
    /// an error, never its default.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let kind = match field(v, "kind", Json::as_str, "a string")? {
            Some("generate") | None => JobKind::Generate,
            Some("lint") => JobKind::Lint,
            Some("atpg") => JobKind::Atpg,
            Some(other) => return Err(format!("unknown job kind {other:?}")),
        };
        let circuit = field(v, "circuit", Json::as_str, "a string")?
            .ok_or("missing \"circuit\"")?
            .to_string();
        let method = match field(v, "method", Json::as_str, "a string")? {
            Some("unconstrained") => Method::Unconstrained,
            Some("constrained") | None => Method::Constrained,
            Some("holding") => Method::Holding,
            Some(other) => return Err(format!("unknown method {other:?}")),
        };
        let preset = match field(v, "preset", Json::as_str, "a string")? {
            Some(p @ ("smoke" | "scaled" | "paper")) => p.to_string(),
            None => "smoke".to_string(),
            Some(other) => return Err(format!("unknown preset {other:?}")),
        };
        let mut search = SearchOptions::default();
        if let Some(batch) = field(v, "batch", Json::as_u64, UINT)? {
            if batch == 0 || batch > MAX_SEARCH_WIDTH {
                return Err(format!("batch {batch} outside 1..={MAX_SEARCH_WIDTH}"));
            }
            search.batch = batch as usize;
        }
        if let Some(threads) = field(v, "threads", Json::as_u64, UINT)? {
            if threads > MAX_SEARCH_WIDTH {
                return Err(format!("threads {threads} above {MAX_SEARCH_WIDTH}"));
            }
            search.threads = threads as usize;
        }
        let swa_scale = match field(v, "swa_scale", Json::as_f64, "a number")? {
            Some(s) if s > 0.0 && s <= 1.0 => s,
            Some(s) => return Err(format!("swa_scale {s} outside (0, 1]")),
            None => 1.0,
        };
        let seed = field(v, "seed", Json::as_u64, UINT)?;
        let max_paths = match field(v, "max_paths", Json::as_u64, UINT)? {
            Some(n @ 1..=MAX_PATHS) => n as usize,
            Some(n) => return Err(format!("max_paths {n} outside 1..={MAX_PATHS}")),
            None => 512,
        };
        let fix = field(v, "fix", Json::as_bool, "a boolean")?.unwrap_or(false);
        if fix && kind != JobKind::Lint {
            return Err("\"fix\" applies to lint jobs only".into());
        }
        Ok(JobSpec {
            kind,
            circuit,
            method,
            preset,
            search,
            swa_scale,
            seed,
            max_paths,
            fix,
        })
    }

    /// The generation config this spec resolves to.
    pub fn config(&self) -> FunctionalBistConfig {
        let mut cfg = match self.preset.as_str() {
            "scaled" => FunctionalBistConfig::scaled(),
            "paper" => FunctionalBistConfig::paper(),
            _ => FunctionalBistConfig::smoke(),
        };
        cfg.search = self.search;
        if let Some(seed) = self.seed {
            cfg.master_seed = seed;
        }
        cfg
    }
}

/// Where a job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// In a shard deque, not yet claimed.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished with a result artifact.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before a worker claimed it.
    Cancelled,
}

impl JobStatus {
    /// The lowercase wire keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// One submitted job.
#[derive(Debug)]
pub struct Job {
    /// The job id (assigned at submission, monotonically increasing).
    pub id: u64,
    /// The validated request.
    pub spec: JobSpec,
    /// The resolved subject circuit.
    pub circuit: Arc<CircuitEntry>,
    status: Mutex<JobStatus>,
    /// Live counters / cancellation for the run.
    pub progress: Progress,
    result: OnceLock<String>,
    error: OnceLock<String>,
    commits: AtomicUsize,
}

impl Job {
    /// A freshly submitted (queued) job.
    pub fn new(id: u64, spec: JobSpec, circuit: Arc<CircuitEntry>) -> Self {
        Job {
            id,
            spec,
            circuit,
            status: Mutex::new(JobStatus::Queued),
            progress: Progress::new(),
            result: OnceLock::new(),
            error: OnceLock::new(),
            commits: AtomicUsize::new(0),
        }
    }

    /// Current status.
    pub fn status(&self) -> JobStatus {
        *self.status.lock().expect("job status poisoned")
    }

    /// Worker-side: claim the job for execution. `false` means the job was
    /// cancelled while queued and must be skipped (the skip is its commit).
    pub fn claim(&self) -> bool {
        let mut status = self.status.lock().expect("job status poisoned");
        match *status {
            JobStatus::Queued => {
                *status = JobStatus::Running;
                true
            }
            _ => false,
        }
    }

    /// Terminal transition; returns the previous commit count (anything
    /// non-zero is a double commit — the pool surfaces it).
    fn commit(&self, to: JobStatus) -> usize {
        *self.status.lock().expect("job status poisoned") = to;
        self.commits.fetch_add(1, Ordering::Relaxed)
    }

    /// Worker-side: record a successful result.
    pub fn complete(&self, artifact: String) -> usize {
        let _ = self.result.set(artifact);
        self.commit(JobStatus::Done)
    }

    /// Worker-side: record a failure.
    pub fn fail(&self, error: String) -> usize {
        let _ = self.error.set(error);
        self.commit(JobStatus::Failed)
    }

    /// Worker-side: commit a queued-cancelled job (claimed `false`).
    pub fn commit_cancelled(&self) -> usize {
        self.commit(JobStatus::Cancelled)
    }

    /// Client-side cancellation. A queued job flips to `Cancelled` (the
    /// worker will skip and commit it); a running job gets its progress
    /// flag set and finishes early on its own. Returns the status the
    /// request observed.
    pub fn cancel(&self) -> JobStatus {
        let mut status = self.status.lock().expect("job status poisoned");
        match *status {
            JobStatus::Queued => {
                *status = JobStatus::Cancelled;
                self.progress.cancel();
                JobStatus::Cancelled
            }
            JobStatus::Running => {
                self.progress.cancel();
                JobStatus::Running
            }
            s => s,
        }
    }

    /// The result artifact, if done.
    pub fn result(&self) -> Option<&str> {
        self.result.get().map(String::as_str)
    }

    /// The error, if failed.
    pub fn error(&self) -> Option<&str> {
        self.error.get().map(String::as_str)
    }

    /// How many terminal transitions this job has taken (1 when healthy).
    pub fn commit_count(&self) -> usize {
        self.commits.load(Ordering::Relaxed)
    }

    /// Status + live progress as a JSON object (the poll payload).
    pub fn status_json(&self) -> String {
        let snap = self.progress.snapshot();
        let progress = {
            let mut p = ObjWriter::new();
            p.num("seeds_tried", snap.seeds_tried)
                .num("seeds_kept", snap.seeds_kept)
                .num("evals", snap.evals)
                .num("sim_cycles", snap.sim_cycles)
                .str("phase", snap.phase.keyword());
            p.finish()
        };
        let mut o = ObjWriter::new();
        o.num("job", self.id)
            .str("status", self.status().keyword())
            .str("kind", self.spec.kind.keyword())
            .str("circuit", &self.circuit.name)
            .str("digest", &digest_hex(self.circuit.digest))
            .raw("progress", &progress);
        if let Some(err) = self.error() {
            o.str("error", err);
        }
        o.finish()
    }
}

/// Execute a job against its circuit, returning the result artifact. Runs
/// on a pool worker; panics inside the engine surface as `Err`, not worker
/// death.
pub fn execute(job: &Job, store: &ContentStore) -> Result<String, String> {
    let result = catch_unwind(AssertUnwindSafe(|| run_job(job, store)));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

fn run_job(job: &Job, store: &ContentStore) -> Result<String, String> {
    let net = &job.circuit.net;
    let spec = &job.spec;
    let mut o = ObjWriter::new();
    o.num("job", job.id)
        .str("kind", spec.kind.keyword())
        .str("circuit", &job.circuit.name)
        .str("digest", &digest_hex(job.circuit.digest));
    match spec.kind {
        JobKind::Lint => {
            o.raw("report", job.circuit.lint_json(&store.counters));
            if spec.fix {
                let out = fbt_lint::fix_netlist(net, &fbt_lint::FixConfig::default());
                o.raw("fix", &out.to_json());
                if out.net_changed() {
                    // Publish the repaired circuit as a content-addressed
                    // artifact under a derived alias; the original name
                    // keeps pointing at the circuit as uploaded.
                    let repaired = out.repaired.expect("changed implies repaired");
                    let alias = format!("{}.fixed", job.circuit.name);
                    let entry = store.register_as(repaired, &alias);
                    o.str("fixed_digest", &digest_hex(entry.digest))
                        .raw("fixed_report", entry.lint_json(&store.counters));
                } else if out.repaired.is_some() {
                    // Nothing applied: the repair is the circuit itself.
                    o.str("fixed_digest", &digest_hex(job.circuit.digest));
                }
            }
        }
        JobKind::Atpg => {
            let paths = fbt_fault::path::enumerate_paths(net, spec.max_paths);
            let faults = fbt_fault::path::tpdf_list(&paths);
            let mut cfg = fbt_atpg::tpdf::TpdfConfig::default();
            if let Some(seed) = spec.seed {
                cfg.seed = seed;
            }
            let report = fbt_atpg::tpdf::run_pipeline(net, &faults, &cfg);
            o.num("num_paths", paths.len())
                .num("num_faults", faults.len())
                .num("detected", report.num_detected())
                .num("undetectable", report.num_undetectable())
                .num("aborted", report.num_aborted());
        }
        JobKind::Generate => {
            let cfg = spec.config();
            o.str("method", spec.method.keyword())
                .str("preset", &spec.preset)
                .num("batch", cfg.search.batch)
                .num("threads", cfg.search.threads)
                .num("seed", cfg.master_seed);
            match spec.method {
                Method::Unconstrained => {
                    let out = generate_unconstrained_watched(net, &cfg, &job.progress);
                    o.raw("summary", &out.summary_json())
                        .raw("counters", &out.stats.counters_json());
                }
                Method::Constrained => {
                    let bound = swafunc(net, &DrivingBlock::Buffers, &cfg) * spec.swa_scale;
                    let out = generate_constrained_watched(net, bound, &cfg, &job.progress);
                    o.raw("swafunc", &format!("{bound}"))
                        .raw("summary", &out.summary_json())
                        .raw("counters", &out.stats.counters_json());
                }
                Method::Holding => {
                    let bound = swafunc(net, &DrivingBlock::Buffers, &cfg) * spec.swa_scale;
                    let base = generate_constrained_watched(net, bound, &cfg, &job.progress);
                    let held = improve_with_holding(net, bound, &cfg, &base);
                    o.raw("swafunc", &format!("{bound}"))
                        .raw("base_summary", &base.summary_json())
                        .raw("summary", &held.summary_json())
                        .raw("counters", &held.stats.counters_json());
                }
            }
            o.bool("cancelled", job.progress.is_cancelled());
        }
    }
    Ok(o.finish())
}

/// Render an error payload.
pub fn error_json(message: &str) -> String {
    format!("{{\"error\":{}}}", escape(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ContentStore;

    fn parse_spec(body: &str) -> Result<JobSpec, String> {
        let v = Json::parse(body).map_err(|e| e.to_string())?;
        JobSpec::from_json(&v)
    }

    #[test]
    fn spec_parsing_defaults_and_validation() {
        let spec = parse_spec("{\"circuit\":\"s27\"}").unwrap();
        assert_eq!(spec.kind, JobKind::Generate);
        assert_eq!(spec.method, Method::Constrained);
        assert_eq!(spec.preset, "smoke");
        assert_eq!(spec.swa_scale, 1.0);
        assert!(spec.seed.is_none());
        assert!(parse_spec("{}").is_err(), "circuit is required");
        assert!(parse_spec("{\"circuit\":\"s27\",\"batch\":0}").is_err());
        assert!(parse_spec("{\"circuit\":\"s27\",\"swa_scale\":1.5}").is_err());
        assert!(parse_spec("{\"circuit\":\"s27\",\"kind\":\"mine\"}").is_err());
        assert!(parse_spec("{\"circuit\":\"s27\",\"preset\":\"huge\"}").is_err());
    }

    #[test]
    fn seed_override_survives_u64_range() {
        // Seeds above 2^53 must round-trip exactly through the JSON layer.
        let spec = parse_spec("{\"circuit\":\"s27\",\"seed\":12887971944133384551}").unwrap();
        assert_eq!(spec.seed, Some(12_887_971_944_133_384_551));
        assert_eq!(spec.config().master_seed, 12_887_971_944_133_384_551);
    }

    #[test]
    fn lifecycle_commits_exactly_once() {
        let store = ContentStore::with_catalog();
        let entry = store.get("s27").unwrap();
        let spec = parse_spec("{\"circuit\":\"s27\"}").unwrap();
        let job = Job::new(1, spec, entry);
        assert_eq!(job.status(), JobStatus::Queued);
        assert!(job.claim());
        assert!(!job.claim(), "second claim must fail");
        assert_eq!(job.complete("{}".into()), 0, "first commit");
        assert_eq!(job.status(), JobStatus::Done);
        assert_eq!(job.commit_count(), 1);
        assert_eq!(
            job.cancel(),
            JobStatus::Done,
            "cancel after done is a no-op"
        );
    }

    #[test]
    fn queued_cancellation_prevents_claim() {
        let store = ContentStore::with_catalog();
        let entry = store.get("s27").unwrap();
        let spec = parse_spec("{\"circuit\":\"s27\"}").unwrap();
        let job = Job::new(2, spec, entry);
        assert_eq!(job.cancel(), JobStatus::Cancelled);
        assert!(!job.claim(), "cancelled jobs are never claimed");
        job.commit_cancelled();
        assert_eq!(job.status(), JobStatus::Cancelled);
        assert_eq!(job.commit_count(), 1);
    }

    #[test]
    fn generate_job_embeds_the_golden_summary_bytes() {
        let store = ContentStore::with_catalog();
        let entry = store.get("s27").unwrap();
        let spec = parse_spec(
            "{\"circuit\":\"s27\",\"method\":\"unconstrained\",\"batch\":4,\"threads\":2}",
        )
        .unwrap();
        let cfg = spec.config();
        let job = Job::new(3, spec, entry.clone());
        assert!(job.claim());
        let artifact = execute(&job, &store).expect("job runs");
        let direct = fbt_core::generate_unconstrained(&entry.net, &cfg);
        assert!(
            artifact.contains(&direct.summary_json()),
            "artifact must embed the direct-engine summary byte-for-byte"
        );
        assert!(artifact.contains(&direct.stats.counters_json()));
        // The artifact is well-formed JSON.
        Json::parse(&artifact).expect("artifact parses");
    }

    #[test]
    fn lint_job_serves_the_cached_report() {
        let store = ContentStore::with_catalog();
        let entry = store.get("s27").unwrap();
        let spec = parse_spec("{\"circuit\":\"s27\",\"kind\":\"lint\"}").unwrap();
        let job = Job::new(4, spec, entry.clone());
        assert!(job.claim());
        let artifact = execute(&job, &store).expect("lint runs");
        assert!(artifact.contains(&fbt_lint::lint_netlist(&entry.net).to_json()));
        Json::parse(&artifact).expect("artifact parses");
    }

    #[test]
    fn fix_flag_is_lint_only() {
        assert!(parse_spec("{\"circuit\":\"s27\",\"fix\":true}").is_err());
        assert!(parse_spec("{\"circuit\":\"s27\",\"kind\":\"atpg\",\"fix\":true}").is_err());
        let spec = parse_spec("{\"circuit\":\"s27\",\"kind\":\"lint\",\"fix\":true}").unwrap();
        assert!(spec.fix);
    }

    #[test]
    fn lint_fix_job_publishes_the_repaired_artifact() {
        let store = ContentStore::with_catalog();
        let messy = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nf = DFF(a)\n\
                     y = AND(b, f)\ndead = XOR(a, b)\ndead2 = NOT(dead)\n";
        let entry = store.register_bench_text(messy, "messy").unwrap();
        let spec = parse_spec("{\"circuit\":\"messy\",\"kind\":\"lint\",\"fix\":true}").unwrap();
        let job = Job::new(5, spec, entry.clone());
        assert!(job.claim());
        let artifact = execute(&job, &store).expect("lint+fix runs");
        let v = Json::parse(&artifact).expect("artifact parses");
        let fixed = v
            .get("fixed_digest")
            .and_then(Json::as_str)
            .expect("repaired artifact digest")
            .to_string();
        assert_ne!(
            fixed,
            digest_hex(entry.digest),
            "repair changed the structure"
        );
        // The repaired circuit is retrievable by digest and by alias, and
        // the original name still resolves to the circuit as uploaded.
        let repaired = store.get(&fixed).expect("content-addressed artifact");
        assert!(repaired.net.num_nodes() < entry.net.num_nodes());
        assert!(std::sync::Arc::ptr_eq(
            &store.get("messy.fixed").unwrap(),
            &repaired
        ));
        assert!(std::sync::Arc::ptr_eq(&store.get("messy").unwrap(), &entry));

        // A fixpoint circuit reports its own digest as the repair.
        let s27 = store.get("s27").unwrap();
        let spec = parse_spec("{\"circuit\":\"s27\",\"kind\":\"lint\",\"fix\":true}").unwrap();
        let job = Job::new(6, spec, s27.clone());
        assert!(job.claim());
        let artifact = execute(&job, &store).expect("lint+fix runs");
        let v = Json::parse(&artifact).expect("artifact parses");
        assert_eq!(
            v.get("fixed_digest").and_then(Json::as_str),
            Some(digest_hex(s27.digest).as_str())
        );
    }
}
