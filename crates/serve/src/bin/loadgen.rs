//! The `loadgen` load-generator binary.
//!
//! Replays a concurrent request mix against a running `fbt-serve` instance:
//! each worker thread drives its own keep-alive connection, submitting jobs
//! (generation, lint, ATPG) round-robin over the server's circuit catalog,
//! polling each job to completion with a doubling back-off (1 ms up to
//! 32 ms, so waiting clients leave the workers the CPU), and fetching its
//! result artifact. Emits a `BENCH_serve.json` report with latency
//! percentiles (per kind and overall), throughput, error counts, and the
//! server's cache counters.
//!
//! ```text
//! loadgen --addr HOST:PORT [--requests N] [--concurrency C]
//!         [--preset smoke|scaled|paper] [--atpg-paths N]
//!         [--out PATH] [--label S] [--shutdown]
//! ```
//!
//! Exits non-zero when any request errors, so scripts can gate on it.

use std::io::{self, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fbt_netlist::json::{ArrWriter, Json, ObjWriter};
use fbt_serve::http::{send_request, Response};

/// How long to keep polling one job before calling it an error.
const JOB_TIMEOUT: Duration = Duration::from_secs(300);
/// The first wait between status polls, doubled after each until the cap.
const POLL_FIRST: Duration = Duration::from_millis(1);
const POLL_MAX: Duration = Duration::from_millis(32);

struct Args {
    addr: String,
    requests: usize,
    concurrency: usize,
    preset: String,
    atpg_paths: usize,
    out: String,
    label: String,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        requests: 500,
        concurrency: 32,
        preset: "smoke".to_string(),
        atpg_paths: 64,
        out: "BENCH_serve.json".to_string(),
        label: "default".to_string(),
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests expects a number".to_string())?
            }
            "--concurrency" => {
                args.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|_| "--concurrency expects a number".to_string())?
            }
            "--preset" => args.preset = value("--preset")?,
            "--atpg-paths" => {
                args.atpg_paths = value("--atpg-paths")?
                    .parse()
                    .map_err(|_| "--atpg-paths expects a number".to_string())?
            }
            "--out" => args.out = value("--out")?,
            "--label" => args.label = value("--label")?,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => {
                println!(
                    "usage: loadgen --addr HOST:PORT [--requests N] [--concurrency C] \
                     [--preset P] [--atpg-paths N] [--out PATH] [--label S] [--shutdown]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    Ok(Args {
        requests: args.requests.max(1),
        concurrency: args.concurrency.max(1),
        ..args
    })
}

/// One planned request: a job body and its kind label.
#[derive(Clone)]
struct Planned {
    kind: &'static str,
    body: String,
}

/// The deterministic request plan: kinds cycle over the catalog.
fn plan(circuits: &[String], args: &Args) -> Vec<Planned> {
    (0..args.requests)
        .map(|i| {
            let circuit = &circuits[i % circuits.len()];
            let seed = 0x5eed_0000 + i as u64;
            match i % 4 {
                0 => Planned {
                    kind: "unconstrained",
                    body: format!(
                        "{{\"circuit\":\"{circuit}\",\"method\":\"unconstrained\",\
                         \"preset\":\"{}\",\"seed\":{seed}}}",
                        args.preset
                    ),
                },
                1 => Planned {
                    kind: "lint",
                    body: format!("{{\"circuit\":\"{circuit}\",\"kind\":\"lint\"}}"),
                },
                2 => Planned {
                    kind: "constrained",
                    body: format!(
                        "{{\"circuit\":\"{circuit}\",\"method\":\"constrained\",\
                         \"preset\":\"{}\",\"seed\":{seed}}}",
                        args.preset
                    ),
                },
                _ => Planned {
                    kind: "atpg",
                    body: format!(
                        "{{\"circuit\":\"{circuit}\",\"kind\":\"atpg\",\
                         \"max_paths\":{},\"seed\":{seed}}}",
                        args.atpg_paths
                    ),
                },
            }
        })
        .collect()
}

/// A client connection that reconnects once on failure.
struct Client {
    addr: String,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        for attempt in 0..2 {
            if self.stream.is_none() {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                self.stream = Some(stream);
            }
            let stream = self.stream.as_mut().expect("connected above");
            match send_request(stream, method, path, body.as_bytes()) {
                Ok(resp) => return Ok(resp),
                Err(e) if attempt == 0 => {
                    // Stale keep-alive connection: reconnect and retry once.
                    self.stream = None;
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the second attempt")
    }
}

/// Run one planned request to completion; returns its latency.
fn run_request(client: &mut Client, planned: &Planned) -> Result<Duration, String> {
    let t0 = Instant::now();
    let resp = client
        .request("POST", "/jobs", &planned.body)
        .map_err(|e| format!("submit: {e}"))?;
    if resp.status != 202 {
        return Err(format!(
            "submit: status {} {}",
            resp.status,
            resp.body_text()
        ));
    }
    let v = Json::parse(&resp.body_text()).map_err(|e| format!("submit body: {e}"))?;
    let id = v
        .get("job")
        .and_then(Json::as_u64)
        .ok_or("submit body: no job id")?;
    let mut wait = POLL_FIRST;
    loop {
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id}: timed out"));
        }
        let resp = client
            .request("GET", &format!("/jobs/{id}"), "")
            .map_err(|e| format!("poll: {e}"))?;
        let v = Json::parse(&resp.body_text()).map_err(|e| format!("poll body: {e}"))?;
        match v.get("status").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") | Some("cancelled") => {
                return Err(format!("job {id}: {}", resp.body_text()))
            }
            _ => {
                std::thread::sleep(wait);
                wait = (wait * 2).min(POLL_MAX);
            }
        }
    }
    let resp = client
        .request("GET", &format!("/jobs/{id}/result"), "")
        .map_err(|e| format!("result: {e}"))?;
    if resp.status != 200 {
        return Err(format!("result: status {}", resp.status));
    }
    Json::parse(&resp.body_text()).map_err(|e| format!("result body: {e}"))?;
    Ok(t0.elapsed())
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn latency_json(mut ms: Vec<f64>) -> String {
    ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mut o = ObjWriter::new();
    o.num("count", ms.len())
        .num("p50_ms", format!("{:.3}", percentile(&ms, 0.50)))
        .num("p90_ms", format!("{:.3}", percentile(&ms, 0.90)))
        .num("p99_ms", format!("{:.3}", percentile(&ms, 0.99)))
        .num("max_ms", format!("{:.3}", percentile(&ms, 1.0)));
    o.finish()
}

fn hit_rate(stats: &Json, obj: &str, hits_key: &str, builds_key: &str) -> f64 {
    let read = |key: &str| {
        stats
            .get(obj)
            .and_then(|o| o.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let hits = read(hits_key);
    let total = hits + read(builds_key);
    if total > 0.0 {
        hits / total
    } else {
        0.0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    let mut control = Client::new(&args.addr);
    let catalog = control
        .request("GET", "/catalog", "")
        .expect("GET /catalog");
    let catalog = Json::parse(&catalog.body_text()).expect("catalog JSON");
    let circuits: Vec<String> = catalog
        .get("circuits")
        .and_then(Json::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    assert!(!circuits.is_empty(), "server catalog is empty");
    let planned = Arc::new(plan(&circuits, &args));
    let next = Arc::new(AtomicUsize::new(0));
    println!(
        "loadgen: {} requests over {} circuits, concurrency {}",
        planned.len(),
        circuits.len(),
        args.concurrency
    );

    let t0 = Instant::now();
    let workers: Vec<_> = (0..args.concurrency)
        .map(|_| {
            let planned = planned.clone();
            let next = next.clone();
            let addr = args.addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(&addr);
                let mut latencies: Vec<(&'static str, f64)> = Vec::new();
                let mut errors: Vec<String> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = planned.get(i) else { break };
                    match run_request(&mut client, p) {
                        Ok(lat) => latencies.push((p.kind, lat.as_secs_f64() * 1e3)),
                        Err(e) => errors.push(format!("request {i} ({}): {e}", p.kind)),
                    }
                }
                (latencies, errors)
            })
        })
        .collect();
    let mut latencies: Vec<(&'static str, f64)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for worker in workers {
        let (lats, errs) = worker.join().expect("worker panicked");
        latencies.extend(lats);
        errors.extend(errs);
    }
    let wall = t0.elapsed();

    let stats_body = control
        .request("GET", "/stats", "")
        .expect("GET /stats")
        .body_text();
    let stats = Json::parse(&stats_body).expect("stats JSON");

    let mut by_kind = ObjWriter::new();
    for kind in ["unconstrained", "constrained", "lint", "atpg"] {
        let ms: Vec<f64> = latencies
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ms)| *ms)
            .collect();
        if !ms.is_empty() {
            by_kind.raw(kind, &latency_json(ms));
        }
    }
    let mut errors_arr = ArrWriter::new();
    for e in errors.iter().take(20) {
        errors_arr.str(e);
    }
    let completed = latencies.len();
    let jobs_per_sec = completed as f64 / wall.as_secs_f64().max(1e-9);
    let mut report = ObjWriter::new();
    report
        .str("label", &args.label)
        .str("preset", &args.preset)
        .num("requests", planned.len())
        .num("concurrency", args.concurrency)
        .num("circuits", circuits.len())
        .num("completed", completed)
        .num("errors", errors.len())
        .raw("error_samples", &errors_arr.finish())
        .num("wall_s", format!("{:.3}", wall.as_secs_f64()))
        .num("jobs_per_sec", format!("{jobs_per_sec:.2}"))
        .raw(
            "latency",
            &latency_json(latencies.iter().map(|(_, ms)| *ms).collect()),
        )
        .raw("latency_by_kind", &by_kind.finish())
        .num(
            "kernel_cache_hit_rate",
            format!("{:.4}", hit_rate(&stats, "kernel_cache", "hits", "builds")),
        )
        .num(
            "lint_cache_hit_rate",
            format!(
                "{:.4}",
                hit_rate(&stats, "store", "lint_hits", "lint_builds")
            ),
        )
        .raw("server_stats", &stats_body);
    let report = report.finish();
    std::fs::write(&args.out, format!("{report}\n")).expect("write report");
    println!(
        "loadgen: {completed}/{} ok, {} errors, {jobs_per_sec:.1} jobs/s, wrote {}",
        planned.len(),
        errors.len(),
        args.out
    );
    for e in errors.iter().take(5) {
        eprintln!("loadgen: {e}");
    }

    if args.shutdown {
        let resp = control
            .request("POST", "/admin/shutdown", "")
            .expect("POST /admin/shutdown");
        assert_eq!(resp.status, 200, "shutdown failed: {}", resp.body_text());
        println!("loadgen: server drained and stopped");
    }
    io::stdout().flush().ok();
    if !errors.is_empty() {
        std::process::exit(1);
    }
}
