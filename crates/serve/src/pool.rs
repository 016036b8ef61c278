//! The work-stealing shard pool.
//!
//! Submitted jobs land in per-shard deques (round-robin placement); each
//! worker thread owns a home shard and pops from its *front*. A worker
//! whose home shard runs dry steals from the *back* of the other shards,
//! so load imbalance self-corrects without a central queue lock becoming a
//! bottleneck.
//!
//! Determinism: the pool decides only *where and when* a job runs, never
//! *how* — each job executes through the same single-engine entry points
//! the CLI uses, with its own config and master seed, so results are
//! byte-identical however the jobs are interleaved or stolen.
//!
//! Shutdown is a drain: submissions are rejected, workers finish every
//! queued and running job (cancelled-while-queued jobs are committed as
//! such, not dropped), and [`Pool::drain`] returns once
//! `submitted == completed + failed + cancelled` with every job committed
//! exactly once.
//!
//! The job registry is bounded: it keeps every queued and running job,
//! plus the [`FINISHED_KEPT`] most recently committed ones (done, failed,
//! or cancelled while queued). Past that, each commit forgets the oldest
//! finished job, whose id then reads as unknown, so a long-lived server
//! holds a fixed number of results however many jobs it serves.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use fbt_netlist::json::ObjWriter;

use crate::jobs::{execute, Job, JobSpec};
use crate::store::ContentStore;

/// How many finished jobs the registry keeps after their commit. Every
/// client in the repository reads a result within a few commits of it
/// finishing, and the largest load plan runs 32 clients.
pub const FINISHED_KEPT: usize = 256;

/// Monotone pool activity counters (process lifetime).
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Jobs accepted into a shard deque.
    pub submitted: AtomicUsize,
    /// Jobs committed `Done`.
    pub completed: AtomicUsize,
    /// Jobs committed `Failed`.
    pub failed: AtomicUsize,
    /// Jobs committed `Cancelled` (cancelled while queued).
    pub cancelled: AtomicUsize,
    /// Finished jobs dropped from the registry past [`FINISHED_KEPT`].
    pub evicted: AtomicUsize,
    /// Pops from a worker's home shard.
    pub local_pops: AtomicUsize,
    /// Pops stolen from another shard's back.
    pub steals: AtomicUsize,
    /// Jobs observed taking a second terminal transition (always 0 when
    /// healthy; surfaced so tests and `/stats` can assert it).
    pub double_commits: AtomicUsize,
}

/// Every queued and running job, plus the last [`FINISHED_KEPT`] finished.
#[derive(Default)]
struct Registry {
    jobs: HashMap<u64, Arc<Job>>,
    /// Committed ids, oldest commit first.
    finished: VecDeque<u64>,
}

struct Shared {
    shards: Vec<Mutex<VecDeque<u64>>>,
    registry: Mutex<Registry>,
    store: Arc<ContentStore>,
    counters: PoolCounters,
    draining: AtomicBool,
    stopping: AtomicBool,
    inflight: AtomicUsize,
    next_id: AtomicU64,
    next_shard: AtomicUsize,
    work: Mutex<()>,
    work_cond: Condvar,
}

impl Shared {
    fn queues_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().expect("shard poisoned").is_empty())
    }

    fn queued(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().expect("job registry poisoned")
    }

    /// Take a job's terminal transition (`commit` returns its previous
    /// commit count) and record it as finished, forgetting the oldest
    /// finished job past [`FINISHED_KEPT`]. Both happen under the registry
    /// lock, so a job that reads terminal is already in the commit order.
    fn commit(&self, id: u64, commit: impl FnOnce() -> usize) -> usize {
        let mut registry = self.registry();
        let prev = commit();
        registry.finished.push_back(id);
        if registry.finished.len() > FINISHED_KEPT {
            let oldest = registry
                .finished
                .pop_front()
                .expect("deque is over the cap");
            registry.jobs.remove(&oldest);
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
        }
        prev
    }
}

/// The work-stealing job pool.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    num_shards: usize,
    num_workers: usize,
}

impl Pool {
    /// Spawn a pool with `workers` threads over `shards` deques against the
    /// given store. Both counts are clamped to at least 1.
    pub fn new(store: Arc<ContentStore>, shards: usize, workers: usize) -> Pool {
        let num_shards = shards.max(1);
        let num_workers = workers.max(1);
        let shared = Arc::new(Shared {
            shards: (0..num_shards)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            registry: Mutex::new(Registry::default()),
            store,
            counters: PoolCounters::default(),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            next_shard: AtomicUsize::new(0),
            work: Mutex::new(()),
            work_cond: Condvar::new(),
        });
        let workers = (0..num_workers)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("fbt-serve-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn worker")
            })
            .collect();
        Pool {
            shared,
            workers: Mutex::new(workers),
            num_shards,
            num_workers,
        }
    }

    /// Validate and enqueue a job. Fails when the pool is draining or the
    /// subject circuit is not in the store.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, String> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err("server is draining; no new jobs accepted".into());
        }
        let entry = self
            .shared
            .store
            .get(&spec.circuit)
            .ok_or_else(|| format!("unknown circuit {:?}", spec.circuit))?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Arc::new(Job::new(id, spec, entry));
        self.shared.registry().jobs.insert(id, job.clone());
        let shard = self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % self.num_shards;
        self.shared.shards[shard]
            .lock()
            .expect("shard poisoned")
            .push_back(id);
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.work_cond.notify_all();
        Ok(job)
    }

    /// Look a job up by id: `None` for an id never issued, or for a
    /// finished job that [`FINISHED_KEPT`] newer commits have displaced.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.shared.registry().jobs.get(&id).cloned()
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<ContentStore> {
        &self.shared.store
    }

    /// Whether [`Pool::drain`] has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Reject new submissions, run every queued and in-flight job to its
    /// commit, and join the workers. Idempotent; returns when the pool is
    /// fully quiescent.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.work_cond.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Pool shape and counters as a JSON object (the `/stats` payload
    /// fragment).
    pub fn counters_json(&self) -> String {
        let c = &self.shared.counters;
        let mut o = ObjWriter::new();
        o.num("shards", self.num_shards)
            .num("workers", self.num_workers)
            .num("queued", self.shared.queued())
            .num("inflight", self.shared.inflight.load(Ordering::Relaxed))
            .num("submitted", c.submitted.load(Ordering::Relaxed))
            .num("completed", c.completed.load(Ordering::Relaxed))
            .num("failed", c.failed.load(Ordering::Relaxed))
            .num("cancelled", c.cancelled.load(Ordering::Relaxed))
            .num("evicted", c.evicted.load(Ordering::Relaxed))
            .num("local_pops", c.local_pops.load(Ordering::Relaxed))
            .num("steals", c.steals.load(Ordering::Relaxed))
            .num("double_commits", c.double_commits.load(Ordering::Relaxed));
        o.finish()
    }

    /// Raw counter access for tests.
    pub fn counters(&self) -> &PoolCounters {
        &self.shared.counters
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.work_cond.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Pop work: home shard front first, then steal from the other shards'
/// backs.
fn pop_work(shared: &Shared, home: usize) -> Option<u64> {
    if let Some(id) = shared.shards[home]
        .lock()
        .expect("shard poisoned")
        .pop_front()
    {
        shared.counters.local_pops.fetch_add(1, Ordering::Relaxed);
        return Some(id);
    }
    let n = shared.shards.len();
    for offset in 1..n {
        let victim = (home + offset) % n;
        if let Some(id) = shared.shards[victim]
            .lock()
            .expect("shard poisoned")
            .pop_back()
        {
            shared.counters.steals.fetch_add(1, Ordering::Relaxed);
            return Some(id);
        }
    }
    None
}

fn worker_loop(shared: &Shared, worker_idx: usize) {
    let home = worker_idx % shared.shards.len();
    loop {
        match pop_work(shared, home) {
            Some(id) => {
                shared.inflight.fetch_add(1, Ordering::SeqCst);
                run_one(shared, id);
                shared.inflight.fetch_sub(1, Ordering::SeqCst);
                shared.work_cond.notify_all();
            }
            None => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                if shared.draining.load(Ordering::SeqCst)
                    && shared.inflight.load(Ordering::SeqCst) == 0
                    && shared.queues_empty()
                {
                    shared.work_cond.notify_all();
                    return;
                }
                let guard = shared.work.lock().expect("work lock poisoned");
                let _ = shared
                    .work_cond
                    .wait_timeout(guard, Duration::from_millis(50))
                    .expect("work lock poisoned");
            }
        }
    }
}

fn run_one(shared: &Shared, id: u64) {
    let Some(job) = shared.registry().jobs.get(&id).cloned() else {
        return;
    };
    let counters = &shared.counters;
    let (prev, outcome) = if !job.claim() {
        // Cancelled while queued: the skip is the job's single commit.
        (
            shared.commit(id, || job.commit_cancelled()),
            &counters.cancelled,
        )
    } else {
        match execute(&job, &shared.store) {
            Ok(artifact) => (
                shared.commit(id, || job.complete(artifact)),
                &counters.completed,
            ),
            Err(error) => (shared.commit(id, || job.fail(error)), &counters.failed),
        }
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    if prev > 0 {
        counters.double_commits.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobStatus;
    use fbt_netlist::json::Json;

    fn spec(body: &str) -> JobSpec {
        JobSpec::from_json(&Json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn jobs_complete_across_shards_and_workers() {
        let store = Arc::new(ContentStore::with_catalog());
        let pool = Pool::new(store, 4, 4);
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                pool.submit(spec(&format!(
                    "{{\"circuit\":\"s27\",\"kind\":\"lint\",\"seed\":{i}}}"
                )))
                .expect("submit")
            })
            .collect();
        pool.drain();
        for job in &jobs {
            assert_eq!(job.status(), JobStatus::Done, "job {}", job.id);
            assert_eq!(job.commit_count(), 1);
            assert!(job.result().is_some());
        }
        let c = pool.counters();
        assert_eq!(c.completed.load(Ordering::Relaxed), 8);
        assert_eq!(c.double_commits.load(Ordering::Relaxed), 0);
        assert_eq!(
            c.local_pops.load(Ordering::Relaxed) + c.steals.load(Ordering::Relaxed),
            8
        );
    }

    #[test]
    fn registry_keeps_the_last_finished_jobs() {
        // Checked without a drain: a job that reads done is already in the
        // commit order, so the eviction it caused has happened.
        let state = crate::api::ServerState::new(Arc::new(ContentStore::with_catalog()), 1, 1);
        let pool = &state.pool;
        let ids: Vec<u64> = (0..=FINISHED_KEPT)
            .map(|_| {
                let job = pool
                    .submit(spec("{\"circuit\":\"s27\",\"kind\":\"lint\"}"))
                    .expect("submit");
                while matches!(job.status(), JobStatus::Queued | JobStatus::Running) {
                    std::thread::yield_now();
                }
                assert_eq!(job.status(), JobStatus::Done);
                job.id
            })
            .collect();
        assert!(
            pool.get(ids[0]).is_none(),
            "the oldest finished job is evicted"
        );
        assert!(ids[1..].iter().all(|&id| pool.get(id).is_some()));
        assert_eq!(pool.counters().evicted.load(Ordering::Relaxed), 1);
        let evicted = ids[0];
        for (method, path) in [
            ("GET", format!("/jobs/{evicted}")),
            ("GET", format!("/jobs/{evicted}/result")),
            ("POST", format!("/jobs/{evicted}/cancel")),
        ] {
            let (status, body) = state.handle(&crate::http::Request {
                method: method.to_string(),
                path,
                headers: Vec::new(),
                body: Vec::new(),
                keep_alive: true,
            });
            assert_eq!(status, 404, "{method}: {body}");
            assert!(body.contains("unknown job"), "{body}");
        }
        assert!(state.stats_json().contains("\"evicted\":1,"));
        pool.drain();
    }

    #[test]
    fn submissions_after_drain_are_rejected() {
        let store = Arc::new(ContentStore::with_catalog());
        let pool = Pool::new(store, 2, 2);
        pool.drain();
        assert!(pool.is_draining());
        assert!(pool
            .submit(spec("{\"circuit\":\"s27\",\"kind\":\"lint\"}"))
            .is_err());
    }

    #[test]
    fn unknown_circuits_are_rejected_at_submission() {
        let store = Arc::new(ContentStore::with_catalog());
        let pool = Pool::new(store, 1, 1);
        assert!(pool
            .submit(spec("{\"circuit\":\"nope\",\"kind\":\"lint\"}"))
            .is_err());
        pool.drain();
    }

    #[test]
    fn workers_keep_no_kernel_after_its_jobs_commit() {
        // More distinct circuits than the global kernel cache holds (64): once
        // their generate jobs commit, the first circuit's kernel must be gone.
        // Checked before `drain`, which joins the worker and would free
        // anything it still held.
        let store = Arc::new(ContentStore::new());
        let names: Vec<String> = (0..72)
            .map(|i| {
                let name = format!("evict{i}");
                let spec = fbt_netlist::synth::CircuitSpec::new(&name, 4, 2, 3, 16);
                store.register_as(fbt_netlist::synth::generate(&spec), &name);
                name
            })
            .collect();
        assert_eq!(store.len(), names.len(), "circuits must be distinct");
        let first_net = store.get(&names[0]).unwrap().net.clone();
        let first = Arc::downgrade(&fbt_sim::kernel::Kernel::for_netlist(&first_net));
        let pool = Pool::new(store, 1, 1);
        let jobs: Vec<_> = names
            .iter()
            .map(|n| {
                let body = format!("{{\"circuit\":\"{n}\",\"method\":\"unconstrained\"}}");
                pool.submit(spec(&body)).expect("submit")
            })
            .collect();
        let pending = |j: &Arc<Job>| matches!(j.status(), JobStatus::Queued | JobStatus::Running);
        while jobs.iter().any(pending) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(jobs.iter().all(|j| j.status() == JobStatus::Done));
        assert!(
            first.upgrade().is_none(),
            "a worker still holds an evicted kernel"
        );
        pool.drain();
    }

    #[test]
    fn outcome_matches_direct_engine_regardless_of_pool_shape() {
        let store = Arc::new(ContentStore::with_catalog());
        let entry = store.get("s27").unwrap();
        let body = "{\"circuit\":\"s27\",\"method\":\"unconstrained\",\"batch\":4,\"threads\":2}";
        let direct = fbt_core::generate_unconstrained(&entry.net, &spec(body).config());
        for (shards, workers) in [(1, 1), (2, 3), (4, 2)] {
            let pool = Pool::new(store.clone(), shards, workers);
            let job = pool.submit(spec(body)).expect("submit");
            pool.drain();
            let artifact = job.result().expect("done").to_string();
            assert!(
                artifact.contains(&direct.summary_json()),
                "pool shape {shards}x{workers} changed the outcome"
            );
        }
    }
}
