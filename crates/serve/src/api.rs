//! The HTTP endpoint layer: routing, the server accept loop, and graceful
//! shutdown.
//!
//! Endpoints (all bodies JSON unless noted):
//!
//! | Method | Path                | Effect                                      |
//! |--------|---------------------|---------------------------------------------|
//! | GET    | `/health`           | liveness + drain flag                       |
//! | GET    | `/stats`            | store / pool / kernel-cache counters        |
//! | GET    | `/catalog`          | stored circuits, sorted by name             |
//! | GET    | `/circuits/<key>`   | one circuit's interface facts               |
//! | GET    | `/circuits/<key>/bench` | the circuit as `.bench` text (not JSON) |
//! | GET    | `/circuits/<key>/verilog` | the circuit as structural Verilog     |
//! | POST   | `/circuits?name=n&format=f` | upload circuit text (body), dedup by digest; `format` is `bench`/`verilog`, sniffed when absent |
//! | POST   | `/jobs`             | submit a job spec, returns its id           |
//! | GET    | `/jobs/<id>`        | status + live progress counters             |
//! | GET    | `/jobs/<id>/result` | the result artifact once done               |
//! | POST   | `/jobs/<id>/cancel` | cancel queued, or flag a running job        |
//! | POST   | `/admin/shutdown`   | drain every job, then stop accepting        |
//!
//! Shutdown ordering matters: the handler first drains the pool (new
//! submissions are rejected, every queued and running job runs to its
//! single commit) and marks shutdown *pending*; the connection thread
//! then writes the response — carrying the final, quiescent counters —
//! and only after the response is flushed flips the accept loop's stop
//! flag and wakes it with a self-connection. No job is ever lost or
//! double-committed, and the shutdown client always gets its answer
//! before the process can exit.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fbt_netlist::frontend::Format;
use fbt_netlist::json::{ArrWriter, Json, ObjWriter};

use crate::http::{read_request, write_response, Request};
use crate::jobs::{error_json, JobSpec, JobStatus};
use crate::pool::Pool;
use crate::store::ContentStore;

/// Shared server state: the store, the pool, and the shutdown latch.
pub struct ServerState {
    /// The content-addressed circuit store.
    pub store: Arc<ContentStore>,
    /// The work-stealing job pool.
    pub pool: Pool,
    shutdown: AtomicBool,
    shutdown_pending: AtomicBool,
    addr: OnceLock<SocketAddr>,
}

impl ServerState {
    /// Fresh state over a store, with the given pool shape.
    pub fn new(store: Arc<ContentStore>, shards: usize, workers: usize) -> Arc<ServerState> {
        Arc::new(ServerState {
            pool: Pool::new(store.clone(), shards, workers),
            store,
            shutdown: AtomicBool::new(false),
            shutdown_pending: AtomicBool::new(false),
            addr: OnceLock::new(),
        })
    }

    /// Whether the accept loop has been told to stop.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The combined `/stats` payload.
    pub fn stats_json(&self) -> String {
        let kc = fbt_sim::kernel::cache_stats();
        let kernel = {
            let mut o = ObjWriter::new();
            o.num("builds", kc.builds)
                .num("hits", kc.hits)
                .num("build_wall_ms", kc.build_wall.as_millis() as u64)
                .num("resident", fbt_sim::kernel::cache_len());
            o.finish()
        };
        let mut o = ObjWriter::new();
        o.bool("draining", self.pool.is_draining())
            .raw("store", &self.store.counters_json())
            .raw("pool", &self.pool.counters_json())
            .raw("kernel_cache", &kernel);
        o.finish()
    }

    /// Route one request to its handler. Returns `(status, json_body)`.
    pub fn handle(&self, req: &Request) -> (u16, String) {
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (req.path.as_str(), None),
        };
        let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segs.as_slice()) {
            ("GET", ["health"]) => {
                let mut o = ObjWriter::new();
                o.bool("ok", true).bool("draining", self.pool.is_draining());
                (200, o.finish())
            }
            ("GET", ["stats"]) => (200, self.stats_json()),
            ("GET", ["catalog"]) => {
                let mut a = ArrWriter::new();
                for entry in self.store.list() {
                    a.raw(&entry.describe_json());
                }
                let mut o = ObjWriter::new();
                o.num("count", self.store.len())
                    .raw("circuits", &a.finish());
                (200, o.finish())
            }
            ("GET", ["circuits", key]) => match self.store.get(key) {
                Some(entry) => (200, entry.describe_json()),
                None => (404, error_json(&format!("unknown circuit {key:?}"))),
            },
            ("GET", ["circuits", key, form @ ("bench" | "verilog")]) => {
                let format = Format::from_keyword(form).expect("route names are format keywords");
                match self.store.get(key) {
                    Some(entry) => (200, entry.emitted_text(format).to_string()),
                    None => (404, error_json(&format!("unknown circuit {key:?}"))),
                }
            }
            ("POST", ["circuits"]) => {
                let name = query_param(query, "name").unwrap_or_else(|| "upload".to_string());
                let format = match query_param(query, "format") {
                    Some(kw) => match Format::from_keyword(&kw) {
                        Some(f) => Some(f),
                        None => {
                            let msg = format!(
                                "unknown format {kw:?} (expected \"bench\" or \"verilog\")"
                            );
                            return (400, error_json(&msg));
                        }
                    },
                    None => None,
                };
                match self.store.register_text(&req.body_text(), &name, format) {
                    Ok((_, entry)) => (201, entry.describe_json()),
                    Err(e) => (400, error_json(&e)),
                }
            }
            ("POST", ["jobs"]) => {
                let spec = Json::parse(&req.body_text())
                    .map_err(|e| e.to_string())
                    .and_then(|v| JobSpec::from_json(&v));
                match spec.and_then(|s| self.pool.submit(s)) {
                    Ok(job) => (202, job.status_json()),
                    Err(e) => (400, error_json(&e)),
                }
            }
            ("GET", ["jobs", id]) => match self.job(id) {
                Some(job) => (200, job.status_json()),
                None => (404, error_json("unknown job")),
            },
            ("GET", ["jobs", id, "result"]) => match self.job(id) {
                Some(job) => match job.status() {
                    JobStatus::Done => (200, job.result().unwrap_or("{}").to_string()),
                    JobStatus::Failed => (409, error_json(job.error().unwrap_or("job failed"))),
                    JobStatus::Cancelled => (409, error_json("job was cancelled")),
                    _ => (409, error_json("job not finished")),
                },
                None => (404, error_json("unknown job")),
            },
            ("POST", ["jobs", id, "cancel"]) => match self.job(id) {
                Some(job) => {
                    let observed = job.cancel();
                    let mut o = ObjWriter::new();
                    o.num("job", job.id).str("observed", observed.keyword());
                    (200, o.finish())
                }
                None => (404, error_json("unknown job")),
            },
            ("POST", ["admin", "shutdown"]) => {
                self.pool.drain();
                let stats = self.stats_json();
                // Only *mark* shutdown here: the accept loop is stopped by
                // `finalize_shutdown_if_pending` after the response is on
                // the wire, so the caller always gets this answer.
                self.shutdown_pending.store(true, Ordering::SeqCst);
                let mut o = ObjWriter::new();
                o.bool("ok", true).raw("stats", &stats);
                (200, o.finish())
            }
            (_, ["health" | "stats" | "catalog" | "circuits" | "jobs" | "admin", ..]) => {
                (405, error_json("method not allowed"))
            }
            _ => (404, error_json("no such endpoint")),
        }
    }

    fn job(&self, id: &str) -> Option<Arc<crate::jobs::Job>> {
        id.parse::<u64>().ok().and_then(|id| self.pool.get(id))
    }

    /// If a shutdown has been requested (and answered), stop the accept
    /// loop: flip the stop flag and wake the listener with a
    /// self-connection. Idempotent. Returns whether shutdown is in effect.
    pub fn finalize_shutdown_if_pending(&self) -> bool {
        if !self.shutdown_pending.load(Ordering::SeqCst) {
            return false;
        }
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            if let Some(addr) = self.addr.get() {
                let _ = TcpStream::connect(addr);
            }
        }
        true
    }
}

fn query_param(query: Option<&str>, key: &str) -> Option<String> {
    query?
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) over the given
    /// state.
    pub fn bind(addr: &str, state: Arc<ServerState>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let _ = state.addr.set(listener.local_addr()?);
        Ok(Server { listener, state })
    }

    /// The bound address (reports the resolved ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state.
    pub fn state(&self) -> Arc<ServerState> {
        self.state.clone()
    }

    /// Accept connections (one thread each) until shutdown. Returns once
    /// the accept loop has observed the stop flag; every job has already
    /// committed by then (shutdown drains first).
    pub fn run(self) {
        for conn in self.listener.incoming() {
            if self.state.is_shutdown() {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = self.state.clone();
            let _ = std::thread::Builder::new()
                .name("fbt-serve-conn".to_string())
                .spawn(move || serve_connection(&state, stream));
        }
    }
}

/// Serve one connection: read requests until the peer closes, asks to
/// close, errors, or the server shuts down.
fn serve_connection(state: &ServerState, mut stream: TcpStream) {
    // A stuck peer must not pin this thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    loop {
        let req = match read_request(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) | Err(_) => return,
        };
        let (status, body) = state.handle(&req);
        let keep_alive = req.keep_alive && !state.is_shutdown();
        let write_ok = write_response(
            &mut stream,
            status,
            "application/json",
            body.as_bytes(),
            keep_alive,
        )
        .is_ok();
        // The response is flushed; now it is safe to stop the accept loop.
        if state.finalize_shutdown_if_pending() || !write_ok || !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn test_state() -> Arc<ServerState> {
        ServerState::new(Arc::new(ContentStore::with_catalog()), 2, 2)
    }

    #[test]
    fn routing_covers_the_surface() {
        let state = test_state();
        let (status, body) = state.handle(&request("GET", "/health", ""));
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\":true"));
        let (status, body) = state.handle(&request("GET", "/catalog", ""));
        assert_eq!(status, 200);
        assert!(body.contains("\"count\":18"));
        let (status, _) = state.handle(&request("GET", "/circuits/s27", ""));
        assert_eq!(status, 200);
        let (status, _) = state.handle(&request("GET", "/circuits/nope", ""));
        assert_eq!(status, 404);
        let (status, _) = state.handle(&request("DELETE", "/catalog", ""));
        assert_eq!(status, 405);
        let (status, _) = state.handle(&request("GET", "/nope", ""));
        assert_eq!(status, 404);
        let (status, body) = state.handle(&request("GET", "/stats", ""));
        assert_eq!(status, 200);
        Json::parse(&body).expect("stats is valid JSON");
        state.pool.drain();
    }

    #[test]
    fn upload_then_job_round_trip() {
        let state = test_state();
        let bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nd = DFF(n)\nn = NAND(a, b)\ny = AND(d, b)\n";
        let (status, body) = state.handle(&request("POST", "/circuits?name=tiny", bench));
        assert_eq!(status, 201, "{body}");
        assert!(body.contains("\"name\":\"tiny\""));
        let (status, body) = state.handle(&request(
            "POST",
            "/jobs",
            "{\"circuit\":\"tiny\",\"kind\":\"lint\"}",
        ));
        assert_eq!(status, 202, "{body}");
        let v = Json::parse(&body).unwrap();
        let id = v.get("job").and_then(Json::as_u64).unwrap();
        state.pool.drain();
        let (status, body) = state.handle(&request("GET", &format!("/jobs/{id}/result"), ""));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"report\":"));
        let (status, _) = state.handle(&request("GET", "/jobs/999/result", ""));
        assert_eq!(status, 404);
    }

    #[test]
    fn verilog_upload_dedups_and_round_trips() {
        let state = test_state();
        // Export the catalog s27 as Verilog, then upload it back: the
        // sniffer detects the format and the store dedups it onto the
        // existing digest entry.
        let (status, v) = state.handle(&request("GET", "/circuits/s27/verilog", ""));
        assert_eq!(status, 200);
        assert!(v.contains("\nmodule "));
        let (status, body) = state.handle(&request("POST", "/circuits?name=s27v", &v));
        assert_eq!(status, 201, "{body}");
        let uploaded = Json::parse(&body).unwrap();
        let upload_digest = uploaded
            .get("digest")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // A second upload of the structurally identical twin — in either
        // format — dedups onto the same digest entry.
        let before = state.store.len();
        let (status, body) = state.handle(&request(
            "GET",
            &format!("/circuits/{upload_digest}/bench"),
            "",
        ));
        assert_eq!(status, 200);
        let (status, body2) = state.handle(&request("POST", "/circuits?name=s27b", &body));
        assert_eq!(status, 201, "{body2}");
        assert_eq!(state.store.len(), before, "deduplicated by digest");
        let again = Json::parse(&body2).unwrap();
        assert_eq!(
            again.get("digest").and_then(Json::as_str).unwrap(),
            upload_digest
        );
        // An explicit format pin is honored; unknown keywords are a 400.
        let (status, _) = state.handle(&request("POST", "/circuits?format=verilog&name=v2", &v));
        assert_eq!(status, 201);
        let (status, body) = state.handle(&request("POST", "/circuits?format=edif&name=v3", &v));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("unknown format"));
        // Forcing the wrong format is a parse error, not a crash.
        let (status, _) = state.handle(&request("POST", "/circuits?format=bench&name=v4", &v));
        assert_eq!(status, 400);
        state.pool.drain();
    }

    #[test]
    fn malformed_job_specs_are_rejected() {
        let state = test_state();
        let (status, _) = state.handle(&request("POST", "/jobs", "not json"));
        assert_eq!(status, 400);
        let (status, _) = state.handle(&request("POST", "/jobs", "{\"circuit\":\"absent\"}"));
        assert_eq!(status, 400);
        let (status, _) = state.handle(&request(
            "POST",
            "/jobs",
            "{\"circuit\":\"s27\",\"batch\":0}",
        ));
        assert_eq!(status, 400);
        // Search widths are capped at one lane word: a huge batch or thread
        // count is a 400, never an allocation attempt, and the server keeps
        // serving — 64 itself is still accepted.
        for body in [
            "{\"circuit\":\"s27\",\"batch\":1000000000000}",
            "{\"circuit\":\"s27\",\"threads\":4294967295}",
            "{\"circuit\":\"s27\",\"batch\":65}",
            "{\"circuit\":\"s27\",\"threads\":65}",
        ] {
            let (status, reply) = state.handle(&request("POST", "/jobs", body));
            assert_eq!(status, 400, "{body}: {reply}");
        }
        // The path cap bounds enumeration, and a present key of the wrong
        // type is a 400 rather than its default.
        for body in [
            "{\"circuit\":\"s27\",\"kind\":\"atpg\",\"max_paths\":4097}",
            "{\"circuit\":\"s27\",\"kind\":\"atpg\",\"max_paths\":18446744073709551615}",
            "{\"circuit\":\"s27\",\"kind\":\"atpg\",\"max_paths\":\"64\"}",
            "{\"circuit\":\"s27\",\"batch\":-1}",
            "{\"circuit\":\"s27\",\"kind\":5}",
            "{\"circuit\":\"s27\",\"swa_scale\":\"half\"}",
            "{\"circuit\":\"s27\",\"kind\":\"lint\",\"fix\":\"yes\"}",
        ] {
            let (status, reply) = state.handle(&request("POST", "/jobs", body));
            assert_eq!(status, 400, "{body}: {reply}");
        }
        let (status, reply) = state.handle(&request(
            "POST",
            "/jobs",
            "{\"circuit\":\"s27\",\"method\":\"unconstrained\",\"batch\":64,\"threads\":64}",
        ));
        assert_eq!(status, 202, "{reply}");
        let (status, _) = state.handle(&request("GET", "/health", ""));
        assert_eq!(status, 200);
        state.pool.drain();
    }
}
