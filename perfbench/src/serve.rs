//! `serve-mix`: `fbt-serve` with 2 shards and 2 workers over the 18-circuit
//! catalog, driven by a closed loop of 2 keep-alive clients (each sends its
//! next request only after the previous reply). The plan is the load
//! generator's: unconstrained, lint, constrained and ATPG jobs cycling over
//! the catalog at the smoke preset. HTTP, the queue, the content store and
//! the kernel and lint caches dominate; the engine's loops are small.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fbt_netlist::json::Json;
use fbt_serve::http::{send_request, Request, Response};
use fbt_serve::jobs::{execute, Job, JobSpec};
use fbt_serve::{ContentStore, Server, ServerState};

use crate::report::median;
use crate::trace::{Totals, Tracer};

/// Jobs per plan pass: the period of the load generator's plan (18
/// circuits, 4 kinds).
pub const PLAN_LEN: usize = 36;
/// Load-generating clients, one keep-alive connection each.
pub const CLIENTS: usize = 2;
/// Pool shape.
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;
/// A job that has not finished by then counts as timed out.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// The ATPG path cap of the load generator.
const ATPG_PATHS: usize = 64;

/// A running in-process server.
pub struct Running {
    pub state: Arc<ServerState>,
    pub addr: SocketAddr,
    thread: JoinHandle<()>,
}

/// Set-up: register the catalog, start the pool and bind the listener.
pub fn start() -> io::Result<Running> {
    let store = Arc::new(ContentStore::with_catalog());
    let state = ServerState::new(store, SHARDS, WORKERS);
    let server = Server::bind("127.0.0.1:0", state.clone())?;
    let addr = server.local_addr()?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Running {
        state,
        addr,
        thread,
    })
}

impl Running {
    /// Drain the pool, stop the accept loop and wait for it.
    pub fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr).map_err(|e| format!("shutdown connect: {e}"))?;
        let resp = c
            .request("POST", "/admin/shutdown", "")
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(c);
        self.thread
            .join()
            .map_err(|_| "accept loop panicked".to_string())?;
        if resp.status == 200 {
            Ok(())
        } else {
            Err(format!("shutdown status {}", resp.status))
        }
    }
}

/// One keep-alive client connection, counting its requests.
pub struct Client {
    stream: TcpStream,
    pub requests: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            requests: 0,
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.requests += 1;
        send_request(&mut self.stream, method, path, body.as_bytes())
    }

    fn get_json(&mut self, path: &str) -> Result<Json, String> {
        let resp = self.request("GET", path, "").map_err(|e| e.to_string())?;
        Json::parse(&resp.body_text()).map_err(|e| e.to_string())
    }
}

/// One planned job.
#[derive(Clone)]
pub struct Planned {
    pub kind: &'static str,
    pub body: String,
}

/// The load generator's deterministic plan (its job seeds included).
pub fn plan(circuits: &[String], len: usize) -> Vec<Planned> {
    (0..len)
        .map(|i| {
            let circuit = &circuits[i % circuits.len()];
            let seed = 0x5eed_0000 + i as u64;
            let (kind, body) = match i % 4 {
                0 => (
                    "unconstrained",
                    format!(
                        "{{\"circuit\":\"{circuit}\",\"method\":\"unconstrained\",\
                         \"preset\":\"smoke\",\"seed\":{seed}}}"
                    ),
                ),
                1 => (
                    "lint",
                    format!("{{\"circuit\":\"{circuit}\",\"kind\":\"lint\"}}"),
                ),
                2 => (
                    "constrained",
                    format!(
                        "{{\"circuit\":\"{circuit}\",\"method\":\"constrained\",\
                         \"preset\":\"smoke\",\"seed\":{seed}}}"
                    ),
                ),
                _ => (
                    "atpg",
                    format!(
                        "{{\"circuit\":\"{circuit}\",\"kind\":\"atpg\",\
                         \"max_paths\":{ATPG_PATHS},\"seed\":{seed}}}"
                    ),
                ),
            };
            Planned { kind, body }
        })
        .collect()
}

/// The order the clients take the plan's jobs in: the plan's own cycle,
/// started at an offset drawn from the workload seed. The clients cycle
/// through it, so the seed moves where the loop starts, not which jobs run
/// side by side in steady state; coverage and work stay fixed across seeds.
pub fn order(seed: u64, len: usize) -> Vec<usize> {
    let start = fbt_netlist::rng::Rng::new(seed ^ 0x5E4E_0000).below(len);
    (0..len).map(|k| (start + k) % len).collect()
}

/// The catalog's circuit names, in listing order.
pub fn catalog(addr: SocketAddr) -> Result<Vec<String>, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let v = c.get_json("/catalog")?;
    let names: Vec<String> = v
        .get("circuits")
        .and_then(Json::as_arr)
        .map(|es| {
            es.iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    if names.is_empty() {
        return Err("empty catalog".into());
    }
    Ok(names)
}

/// What one served job produced.
pub struct Served {
    pub index: usize,
    pub id: u64,
    pub latency: Duration,
    pub requests: usize,
    pub result: Result<String, String>,
}

/// Run one job to completion over `client`: submit, poll until a terminal
/// status, fetch the result.
fn run_job(
    client: &mut Client,
    planned: &Planned,
    index: usize,
    mut tr: Option<&mut Tracer>,
) -> Served {
    let t0 = Instant::now();
    let before = client.requests;
    let mut id = 0;
    let span =
        |name: &'static str, tr: &mut Option<&mut Tracer>| tr.as_deref_mut().map(|t| t.enter(name));
    let close = |s: Option<usize>, tr: &mut Option<&mut Tracer>| {
        if let (Some(s), Some(t)) = (s, tr.as_deref_mut()) {
            t.exit(s)
        }
    };
    if let Some(t) = tr.as_deref_mut() {
        t.next_run();
    }
    let job = span("serve.job", &mut tr);
    let result = (|| {
        let s = span("serve.http.submit", &mut tr);
        let resp = client.request("POST", "/jobs", &planned.body);
        close(s, &mut tr);
        let resp = resp.map_err(|e| format!("submit: {e}"))?;
        if resp.status != 202 {
            return Err(format!(
                "submit: status {} {}",
                resp.status,
                resp.body_text()
            ));
        }
        id = Json::parse(&resp.body_text())
            .ok()
            .and_then(|v| v.get("job").and_then(Json::as_u64))
            .ok_or("submit: no job id")?;
        loop {
            if t0.elapsed() > JOB_TIMEOUT {
                return Err(format!("job {id}: timed out"));
            }
            let s = span("serve.http.poll", &mut tr);
            let v = client.get_json(&format!("/jobs/{id}"));
            close(s, &mut tr);
            match v?.get("status").and_then(Json::as_str) {
                Some("done") => break,
                Some(other @ ("failed" | "cancelled")) => return Err(format!("job {id}: {other}")),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        let s = span("serve.http.result", &mut tr);
        let resp = client.request("GET", &format!("/jobs/{id}/result"), "");
        close(s, &mut tr);
        let resp = resp.map_err(|e| format!("result: {e}"))?;
        if resp.status != 200 {
            return Err(format!("result: status {}", resp.status));
        }
        Ok(resp.body_text())
    })();
    close(job, &mut tr);
    Served {
        index,
        id,
        latency: t0.elapsed(),
        requests: client.requests - before,
        result,
    }
}

/// The closed loop: each client takes the next job of `order` (cycling
/// through it) once its previous one has finished, for whole cycles until
/// the deadline has passed (one cycle without a deadline). Whole cycles
/// keep the job mix the same whatever the measured time. With tracers,
/// every client records its own spans. Returns the served jobs in sending
/// order and the wall time until the last one finished.
pub fn closed_loop(
    clients: &mut [Client],
    planned: &[Planned],
    order: &[usize],
    deadline: Option<Instant>,
    tracers: Option<&mut [Tracer]>,
) -> (Vec<Served>, Duration) {
    let next = Mutex::new(0usize);
    let take = || {
        let mut k = next.lock().expect("job counter poisoned");
        let cycle_done = *k > 0 && (*k).is_multiple_of(order.len());
        if cycle_done && deadline.is_none_or(|d| Instant::now() >= d) {
            return None;
        }
        *k += 1;
        Some(*k - 1)
    };
    let t0 = Instant::now();
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => clients.iter().map(|_| None).collect(),
    };
    let mut served: Vec<(usize, Served)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tr)| {
                let take = &take;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(k) = take() {
                        let i = order[k % order.len()];
                        out.push((k, run_job(client, &planned[i], i, tr.as_deref_mut())));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    served.sort_by_key(|(k, _)| *k);
    (served.into_iter().map(|(_, s)| s).collect(), wall)
}

/// A result artifact with its job id blanked, for comparing repeats.
pub fn without_id(artifact: &str) -> String {
    match artifact.strip_prefix("{\"job\":") {
        Some(rest) => {
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            format!("{{\"job\":0{}", &rest[digits..])
        }
        None => artifact.to_string(),
    }
}

/// Execute planned jobs directly through `jobs::execute` (no HTTP, no
/// pool) under the ids they were served with. Returns each artifact and
/// its execution time.
pub fn execute_direct(
    store: &ContentStore,
    planned: &[Planned],
    served: &[&Served],
) -> Vec<(Result<String, String>, Duration)> {
    served
        .iter()
        .map(|s| {
            let spec = Json::parse(&planned[s.index].body)
                .map_err(|e| e.to_string())
                .and_then(|v| JobSpec::from_json(&v));
            let spec = match spec {
                Ok(spec) => spec,
                Err(e) => return (Err(e), Duration::ZERO),
            };
            let Some(entry) = store.get(&spec.circuit) else {
                return (Err("unknown circuit".into()), Duration::ZERO);
            };
            let job = Job::new(s.id, spec, entry);
            job.claim();
            crate::report::timed(|| execute(&job, store))
        })
        .collect()
}

/// The pool and store counters of `/stats`.
pub fn stats(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    let v = client.get_json("/stats")?;
    let mut out = BTreeMap::new();
    for (obj, keys) in [
        (
            "pool",
            &["steals", "double_commits", "completed", "failed"][..],
        ),
        ("store", &["lint_hits", "lint_builds"][..]),
    ] {
        for key in keys {
            let val = v
                .get(obj)
                .and_then(|o| o.get(key))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("/stats lacks {obj}.{key}"))?;
            out.insert(format!("{obj}.{key}"), val);
        }
    }
    Ok(out)
}

/// Median round trip of `GET /health` on a keep-alive connection, in ms.
pub fn health_rtt_ms(client: &mut Client, samples: usize) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        let resp = client
            .request("GET", "/health", "")
            .map_err(|e| e.to_string())?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            return Err(format!("/health status {}", resp.status));
        }
    }
    Ok(median(&ms))
}

/// Median time of `ServerState::handle` on an in-memory poll request, in µs.
pub fn handle_us(state: &ServerState, job_id: u64, iters: usize) -> f64 {
    let req = Request {
        method: "GET".into(),
        path: format!("/jobs/{job_id}"),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: true,
    };
    let mut us = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(state.handle(std::hint::black_box(&req)));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Sum span totals of several tracers.
pub fn merged_totals(tracers: &[Tracer]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for t in tracers {
        for (name, v) in t.totals() {
            let e = out.entry(name).or_default();
            e.count += v.count;
            e.busy += v.busy;
            e.self_time += v.self_time;
        }
    }
    out
}
