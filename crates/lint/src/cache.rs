//! Digest-keyed incremental lint cache.
//!
//! Re-linting an unchanged circuit should cost a digest, not a re-analysis.
//! This module memoizes each rule group's diagnostics in a process-wide
//! store keyed by
//!
//! * the circuit's 128-bit structural digest
//!   ([`fbt_sim::kernel::structural_digest`] — structure only, so a name
//!   hash is mixed in separately: diagnostics embed net names),
//! * an FNV-1a digest over the subject name and every node name,
//! * the constraint text digest (`0` when no constraints apply),
//! * the rule group id and its version (bumped whenever a group's logic
//!   changes, so stale entries can never satisfy a newer rule).
//!
//! [`lint_netlist_cached`] produces a report byte-identical to
//! [`crate::lint_netlist`] (a unit test asserts this) plus a [`LintPerf`]
//! record of per-group wall-clock and hit/miss flags, which `fbt-lint
//! --json` surfaces under the non-golden `perf` key. The store is
//! in-process (the CLI, the fix engine's re-lint rounds, and `fbt-serve`
//! workers all share it); entries are evicted FIFO beyond a fixed cap so a
//! long-running service cannot grow without bound.
//!
//! # Persistence across processes
//!
//! When a spill directory is configured — via [`set_spill_dir`] or the
//! `FBT_LINT_CACHE_DIR` environment variable — every computed group is
//! additionally written to disk as one content-addressed JSON file, named by
//! the full cache key in the same digest-hex layout the `fbt-serve` artifact
//! store uses. A later *process* that misses in memory then loads the
//! spilled diagnostics instead of recomputing (and the load counts as a
//! cache hit, so `fbt-lint --json`'s `perf` key shows warm restarts as
//! all-hit runs). Writes are atomic (unique temp file + rename) and
//! best-effort: a read-only or corrupt spill directory degrades to the
//! in-memory behavior, never to a failure. Stale entries cannot resurface:
//! the group version is part of the file name, and rule ids are re-interned
//! against the live registry on load.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use fbt_netlist::bench::RawBench;
use fbt_netlist::Netlist;

use crate::constraints::{self, ConstraintSet};
use crate::diag::{Diagnostic, LintReport};
use crate::graph::RawCircuit;
use crate::{dupes, scoap, structural};

/// Maximum number of cached rule-group entries before FIFO eviction.
const CACHE_CAP: usize = 256;

/// Version tags per rule group; bump when the group's logic changes.
const STRUCTURAL_VERSION: u32 = 1;
const SCOAP_VERSION: u32 = 1;
const X_SOURCE_VERSION: u32 = 1;
const DUPES_VERSION: u32 = 1;
const CONSTRAINTS_VERSION: u32 = 1;
const RAW_VERSION: u32 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Structural digest of the subject netlist.
    circuit: u128,
    /// FNV-1a over subject name + node names (diagnostics embed names).
    names: u64,
    /// FNV-1a over the constraint text; `0` for netlist-only groups.
    constraints: u64,
    /// Rule group id.
    group: &'static str,
    /// Rule group version.
    version: u32,
}

struct CacheStore {
    map: HashMap<CacheKey, Arc<Vec<Diagnostic>>>,
    /// Insertion order for FIFO eviction.
    order: Vec<CacheKey>,
    hits: u64,
    misses: u64,
}

fn store() -> &'static Mutex<CacheStore> {
    static STORE: OnceLock<Mutex<CacheStore>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(CacheStore {
            map: HashMap::new(),
            order: Vec::new(),
            hits: 0,
            misses: 0,
        })
    })
}

/// Process-wide cache statistics: `(hits, misses)` since startup.
pub fn cache_stats() -> (u64, u64) {
    let s = store().lock().expect("lint cache poisoned");
    (s.hits, s.misses)
}

fn spill_override() -> &'static Mutex<Option<PathBuf>> {
    static OVERRIDE: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    OVERRIDE.get_or_init(|| Mutex::new(None))
}

/// Set (or clear) the on-disk spill directory programmatically, overriding
/// the `FBT_LINT_CACHE_DIR` environment variable. Embedders (`fbt-serve`)
/// and tests use this; the CLI relies on the environment variable.
pub fn set_spill_dir(dir: Option<PathBuf>) {
    *spill_override().lock().expect("spill override poisoned") = dir;
}

/// The active spill directory, if persistence is enabled.
fn spill_dir() -> Option<PathBuf> {
    if let Some(d) = spill_override()
        .lock()
        .expect("spill override poisoned")
        .clone()
    {
        return Some(d);
    }
    std::env::var_os("FBT_LINT_CACHE_DIR").map(PathBuf::from)
}

/// Content-addressed file for a cache key: digest-hex fields joined by `-`,
/// mirroring the `fbt-serve` artifact-store naming.
fn spill_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(format!(
        "{:032x}-{:016x}-{:016x}-{}-{:08x}.json",
        key.circuit, key.names, key.constraints, key.group, key.version
    ))
}

/// Load a group's diagnostics from the spill directory. Returns `None` for
/// missing, corrupt, or stale files (unknown rule id / severity), which all
/// degrade to a recompute.
fn load_spilled(dir: &Path, key: &CacheKey) -> Option<Vec<Diagnostic>> {
    let text = fs::read_to_string(spill_path(dir, key)).ok()?;
    let parsed = fbt_netlist::json::Json::parse(&text).ok()?;
    let arr = parsed.as_arr()?;
    let mut diags = Vec::with_capacity(arr.len());
    for d in arr {
        // Rule ids are `&'static str`: re-intern through the registry so a
        // file written by an older binary with a renamed rule reads as a
        // miss rather than fabricating an unknown id.
        let rule_id = crate::rules::find_rule(d.get("rule_id")?.as_str()?)?.id;
        let severity = crate::diag::Severity::from_keyword(d.get("severity")?.as_str()?)?;
        diags.push(
            Diagnostic::new(
                rule_id,
                severity,
                d.get("location")?.as_str()?,
                d.get("message")?.as_str()?,
            )
            .with_help(d.get("help")?.as_str()?),
        );
    }
    Some(diags)
}

/// Persist a computed group. Best-effort and atomic: a unique temp file is
/// renamed into place, so concurrent processes never observe a torn write;
/// any I/O failure silently leaves the cache memory-only.
fn store_spilled(dir: &Path, key: &CacheKey, diags: &[Diagnostic]) {
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut arr = fbt_netlist::json::ArrWriter::new();
    for d in diags {
        arr.raw(&d.to_json());
    }
    let path = spill_path(dir, key);
    let tmp = dir.join(format!(
        ".tmp-{}-{:032x}-{:016x}-{}-{:08x}",
        std::process::id(),
        key.circuit,
        key.names ^ key.constraints,
        key.group,
        key.version
    ));
    if fs::write(&tmp, arr.finish()).is_ok() && fs::rename(&tmp, &path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// 64-bit FNV-1a over a byte slice.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of the names a report can mention: the subject name plus every
/// node name, separated so `["ab","c"]` and `["a","bc"]` differ.
pub fn names_digest(net: &Netlist) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |s: &str| {
        for &b in s.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(net.name());
    for id in net.node_ids() {
        eat(net.node_name(id));
    }
    h
}

/// Digest of a constraint document (or any text blob used as a cache key).
pub fn text_digest(text: &str) -> u64 {
    fnv64(text.as_bytes())
}

/// Wall-clock and cache outcome for one rule group in one lint run.
#[derive(Debug, Clone)]
pub struct GroupPerf {
    /// Rule group id (`structural`, `scoap`, `x-source`, `dupes`,
    /// `constraints`).
    pub group: &'static str,
    /// Wall-clock microseconds spent producing (or fetching) the group.
    pub micros: u128,
    /// Whether the group's diagnostics came from the cache.
    pub cache_hit: bool,
    /// Number of diagnostics the group contributed.
    pub findings: usize,
}

/// Per-group performance record for one cached lint run.
#[derive(Debug, Clone, Default)]
pub struct LintPerf {
    /// One entry per rule group, in execution order.
    pub groups: Vec<GroupPerf>,
}

impl LintPerf {
    /// Number of groups served from the cache.
    pub fn hits(&self) -> usize {
        self.groups.iter().filter(|g| g.cache_hit).count()
    }

    /// Number of groups that had to be computed.
    pub fn misses(&self) -> usize {
        self.groups.iter().filter(|g| !g.cache_hit).count()
    }

    /// Fold another run's groups into this record (multi-subject CLI runs).
    pub fn absorb(&mut self, other: LintPerf) {
        self.groups.extend(other.groups);
    }
}

/// Insert an entry into the in-memory store (caller holds no lock).
fn remember(key: CacheKey, diags: &Arc<Vec<Diagnostic>>, hit: bool) {
    let mut s = store().lock().expect("lint cache poisoned");
    if hit {
        s.hits += 1;
    } else {
        s.misses += 1;
    }
    if !s.map.contains_key(&key) {
        if s.order.len() >= CACHE_CAP {
            let evict = s.order.remove(0);
            s.map.remove(&evict);
        }
        s.map.insert(key, diags.clone());
        s.order.push(key);
    }
}

/// Fetch a group's diagnostics from the cache, computing and inserting on
/// miss. Returns the diagnostics and whether the lookup hit.
///
/// Lookup order: in-memory store, then the on-disk spill (if configured —
/// a disk load counts as a hit and is promoted into memory), then compute.
/// Computed groups are spilled back to disk for the next process.
fn cached_group(
    key: CacheKey,
    compute: impl FnOnce() -> Vec<Diagnostic>,
) -> (Arc<Vec<Diagnostic>>, bool) {
    {
        let mut s = store().lock().expect("lint cache poisoned");
        if let Some(hit) = s.map.get(&key) {
            let hit = hit.clone();
            s.hits += 1;
            return (hit, true);
        }
    }
    let dir = spill_dir();
    if let Some(dir) = &dir {
        if let Some(diags) = load_spilled(dir, &key) {
            let diags = Arc::new(diags);
            remember(key, &diags, true);
            return (diags, true);
        }
    }
    // Compute outside the lock: SAT-backed groups can take a while and
    // other threads (fbt-serve workers) should not stall behind them.
    let diags = Arc::new(compute());
    if let Some(dir) = &dir {
        store_spilled(dir, &key, &diags);
    }
    remember(key, &diags, false);
    (diags, false)
}

/// Run one group through the cache and push its diagnostics into `report`,
/// recording wall-clock and hit/miss in `perf`.
fn run_group(
    report: &mut LintReport,
    perf: &mut LintPerf,
    key: CacheKey,
    compute: impl FnOnce() -> Vec<Diagnostic>,
) {
    let start = Instant::now();
    let (diags, cache_hit) = cached_group(key, compute);
    perf.groups.push(GroupPerf {
        group: key.group,
        micros: start.elapsed().as_micros(),
        cache_hit,
        findings: diags.len(),
    });
    for d in diags.iter() {
        report.push(d.clone());
    }
}

/// Collect the diagnostics a closure writes into a scratch report.
fn collect(f: impl FnOnce(&mut LintReport)) -> Vec<Diagnostic> {
    let mut scratch = LintReport::new("scratch");
    f(&mut scratch);
    scratch.take_diagnostics()
}

/// Cache-backed [`crate::lint_netlist`]: byte-identical report, plus a
/// [`LintPerf`] record. Groups are memoized independently, so a circuit
/// re-linted after (say) only the dupes rule version was bumped still hits
/// on the other three groups.
pub fn lint_netlist_cached(net: &Netlist) -> (LintReport, LintPerf) {
    let circuit = fbt_sim::kernel::structural_digest(net);
    let names = names_digest(net);
    let key = |group: &'static str, version: u32| CacheKey {
        circuit,
        names,
        constraints: 0,
        group,
        version,
    };
    let mut report = LintReport::new(net.name());
    let mut perf = LintPerf::default();
    run_group(
        &mut report,
        &mut perf,
        key("structural", STRUCTURAL_VERSION),
        || {
            collect(|r| {
                let c = RawCircuit::from_netlist(net);
                structural::run(&c, r);
            })
        },
    );
    run_group(&mut report, &mut perf, key("scoap", SCOAP_VERSION), || {
        collect(|r| {
            let c = RawCircuit::from_netlist(net);
            scoap::run(&c, r);
        })
    });
    run_group(
        &mut report,
        &mut perf,
        key("x-source", X_SOURCE_VERSION),
        || collect(|r| structural::x_source_ffs(net, None, r)),
    );
    run_group(&mut report, &mut perf, key("dupes", DUPES_VERSION), || {
        collect(|r| dupes::run(net, r))
    });
    report.sort();
    (report, perf)
}

/// Cache-backed raw-document lint (either frontend format), byte-identical
/// to [`crate::lint_raw`]. The tolerant-graph groups carry line-level
/// locations, so they key on the *document text* digest rather than the
/// structural digest; the simulation- and SAT-backed groups (which only
/// run when the document builds) share the netlist-keyed entries with
/// [`lint_netlist_cached`].
pub fn lint_raw_cached(raw: &RawBench, text: &str) -> (LintReport, LintPerf) {
    let doc = text_digest(text);
    let names = fnv64(raw.name.as_bytes());
    let mut report = LintReport::new(&raw.name);
    let mut perf = LintPerf::default();
    let raw_key = |group: &'static str, version: u32| CacheKey {
        circuit: 0,
        names,
        constraints: doc,
        group,
        version,
    };
    run_group(
        &mut report,
        &mut perf,
        raw_key("raw-structural", STRUCTURAL_VERSION ^ (RAW_VERSION << 16)),
        || {
            collect(|r| {
                let c = RawCircuit::from_raw_bench(raw);
                structural::run(&c, r);
            })
        },
    );
    run_group(
        &mut report,
        &mut perf,
        raw_key("raw-scoap", SCOAP_VERSION ^ (RAW_VERSION << 16)),
        || {
            collect(|r| {
                let c = RawCircuit::from_raw_bench(raw);
                scoap::run(&c, r);
            })
        },
    );
    if let Ok(net) = raw.to_builder().and_then(|b| b.finish()) {
        let circuit = fbt_sim::kernel::structural_digest(&net);
        let net_names = names_digest(&net);
        let net_key = |group: &'static str, version: u32| CacheKey {
            circuit,
            names: net_names,
            constraints: 0,
            group,
            version,
        };
        run_group(
            &mut report,
            &mut perf,
            net_key("x-source", X_SOURCE_VERSION),
            || collect(|r| structural::x_source_ffs(&net, None, r)),
        );
        run_group(
            &mut report,
            &mut perf,
            net_key("dupes", DUPES_VERSION),
            || collect(|r| dupes::run(&net, r)),
        );
    }
    report.sort();
    (report, perf)
}

/// Cache-backed constraint-document lint for a given subject: parses and
/// checks `text` against the subject's PI names, memoized on a digest of
/// the subject identity (name + PI names) plus the constraint text digest.
pub fn lint_constraints_cached(
    subject: &str,
    pi_names: &[String],
    text: &str,
) -> (LintReport, LintPerf) {
    let mut names = fnv64(subject.as_bytes());
    for pi in pi_names {
        names ^= fnv64(pi.as_bytes()).rotate_left(17);
        names = names.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let key = CacheKey {
        circuit: 0,
        names,
        constraints: text_digest(text),
        group: "constraints",
        version: CONSTRAINTS_VERSION,
    };
    let mut report = LintReport::new(subject);
    let mut perf = LintPerf::default();
    let subject_owned = subject.to_string();
    run_group(&mut report, &mut perf, key, || {
        collect(|r| {
            let set = ConstraintSet::parse(text, &subject_owned, r);
            let refs: Vec<&str> = pi_names.iter().map(|s| s.as_str()).collect();
            constraints::run_names(&subject_owned, &refs, &set, r);
        })
    });
    report.sort();
    (report, perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_netlist;
    use fbt_netlist::{GateKind, NetlistBuilder};

    fn toy(name: &str) -> Netlist {
        let mut b = NetlistBuilder::new(name);
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate(GateKind::And, "x", &["a", "c"]).unwrap();
        b.gate(GateKind::And, "y", &["c", "a"]).unwrap();
        b.gate(GateKind::Or, "z", &["x", "y"]).unwrap();
        b.output("z").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn cached_report_matches_uncached_byte_for_byte() {
        let net = fbt_netlist::s27();
        let (mut cached, _) = lint_netlist_cached(&net);
        assert_eq!(cached.to_json(), lint_netlist(&net).to_json());
        let net = toy("toy");
        let (mut cached, _) = lint_netlist_cached(&net);
        assert_eq!(cached.to_json(), lint_netlist(&net).to_json());
    }

    #[test]
    fn second_lint_hits_on_every_group() {
        let net = toy("hit-test");
        let (_, first) = lint_netlist_cached(&net);
        let (mut report, second) = lint_netlist_cached(&net);
        assert_eq!(second.hits(), second.groups.len(), "all groups hit");
        assert_eq!(second.misses(), 0);
        assert_eq!(report.to_json(), lint_netlist(&net).to_json());
        // The first run may hit too (other tests share the process-wide
        // store), but it can never hit more than the second.
        assert!(first.hits() <= second.hits());
    }

    #[test]
    fn same_structure_different_names_does_not_hit() {
        // Structural digests collide (names excluded); the name digest must
        // keep the entries apart or reports would carry the wrong names.
        let a = toy("names-a");
        let b = toy("names-b");
        assert_eq!(
            fbt_sim::kernel::structural_digest(&a),
            fbt_sim::kernel::structural_digest(&b)
        );
        let (mut ra, _) = lint_netlist_cached(&a);
        let (mut rb, _) = lint_netlist_cached(&b);
        assert_ne!(ra.to_json(), rb.to_json());
        assert!(rb.to_json().contains("names-b"));
    }

    #[test]
    fn constraint_cache_keys_on_text() {
        let pis = vec!["a".to_string(), "c".to_string()];
        let (mut r1, p1) = lint_constraints_cached("constr", &pis, "a = 1\n");
        let (mut r2, p2) = lint_constraints_cached("constr", &pis, "a = 1\n");
        assert_eq!(r1.to_json(), r2.to_json());
        assert!(p2.hits() >= p1.hits());
        let (mut r3, _) = lint_constraints_cached("constr", &pis, "bogus = 1\n");
        assert_ne!(r1.to_json(), r3.to_json());
    }

    /// Serializes the spill-override tests (the override is process-wide).
    fn spill_test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    fn sample_diags() -> Vec<Diagnostic> {
        vec![
            Diagnostic::new(
                crate::rules::find_rule("undriven-net").unwrap().id,
                crate::diag::Severity::Error,
                "spill:x",
                "net `x` has no driver",
            )
            .with_help("drive it"),
            Diagnostic::new(
                crate::rules::find_rule("dangling-gate").unwrap().id,
                crate::diag::Severity::Warning,
                "spill:y",
                "gate `y` drives nothing",
            ),
        ]
    }

    #[test]
    fn disk_spill_round_trips_without_memory() {
        let _guard = spill_test_lock().lock().unwrap();
        let dir =
            std::env::temp_dir().join(format!("fbt-lint-spill-roundtrip-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_spill_dir(Some(dir.clone()));
        // A key no other test can produce: the memory store has never seen
        // it, so a hit can only come from disk.
        let key = CacheKey {
            circuit: 0xfeed_face_cafe_f00d_dead_beef_0000_0001,
            names: 0x1234_5678,
            constraints: 7,
            group: "structural",
            version: 0xffff_0001,
        };
        let diags = sample_diags();
        store_spilled(&dir, &key, &diags);
        let (got, hit) = cached_group(key, || panic!("must be served from disk"));
        assert!(hit, "spilled entry must count as a cache hit");
        assert_eq!(*got, diags, "diagnostics survive the disk round trip");
        // Promoted into memory: a second lookup hits without touching disk.
        let _ = fs::remove_dir_all(&dir);
        let (again, hit2) = cached_group(key, || panic!("must be in memory now"));
        assert!(hit2);
        assert_eq!(*again, diags);
        set_spill_dir(None);
    }

    #[test]
    fn corrupt_or_stale_spill_files_recompute() {
        let _guard = spill_test_lock().lock().unwrap();
        let dir =
            std::env::temp_dir().join(format!("fbt-lint-spill-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        set_spill_dir(Some(dir.clone()));
        let key = CacheKey {
            circuit: 0xfeed_face_cafe_f00d_dead_beef_0000_0002,
            names: 2,
            constraints: 2,
            group: "scoap",
            version: 0xffff_0002,
        };
        fs::create_dir_all(&dir).unwrap();
        fs::write(spill_path(&dir, &key), "not json at all").unwrap();
        let (got, hit) = cached_group(key, sample_diags);
        assert!(!hit, "corrupt file must fall through to compute");
        assert_eq!(*got, sample_diags());

        // A stale file naming a rule the registry does not know is a miss,
        // not a fabricated diagnostic.
        let key2 = CacheKey {
            version: 0xffff_0003,
            ..key
        };
        fs::write(
            spill_path(&dir, &key2),
            "[{\"rule_id\":\"retired-rule\",\"severity\":\"error\",\
             \"location\":\"l\",\"message\":\"m\",\"help\":\"\"}]",
        )
        .unwrap();
        let (_, hit2) = cached_group(key2, sample_diags);
        assert!(!hit2, "unknown rule id must not load");
        let _ = fs::remove_dir_all(&dir);
        set_spill_dir(None);
    }

    #[test]
    fn spill_disabled_without_configuration() {
        // No override, no env var (tests do not set it): nothing written.
        let _guard = spill_test_lock().lock().unwrap();
        assert!(
            spill_dir().is_none() || std::env::var_os("FBT_LINT_CACHE_DIR").is_some(),
            "spill must be opt-in"
        );
    }

    #[test]
    fn cached_raw_report_matches_uncached_byte_for_byte() {
        for text in [
            // Valid document: all four groups run.
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nx = AND(a, b)\ny = AND(b, a)\nz = OR(x, y)\n",
            // Broken document: only the tolerant-graph groups run.
            "INPUT(a)\nOUTPUT(x)\nx = AND(a, x)\ny = NOT(ghost)\nOUTPUT(y)\n",
        ] {
            let raw = fbt_netlist::bench::parse_raw(text, "doc").unwrap();
            let (mut cached, _) = lint_raw_cached(&raw, text);
            assert_eq!(cached.to_json(), crate::lint_raw(&raw).to_json());
            let (mut again, perf) = lint_raw_cached(&raw, text);
            assert_eq!(again.to_json(), cached.to_json());
            assert_eq!(perf.misses(), 0, "second pass must hit every group");
        }
    }
}
