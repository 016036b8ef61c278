//! The content-addressed circuit store.
//!
//! Circuits are keyed by the 128-bit structural FNV digest of
//! [`fbt_sim::kernel::structural_digest`] — the same key the global
//! compiled-kernel cache uses — so a re-uploaded circuit, or two uploads of
//! structurally identical netlists under different names, share one parsed
//! and levelized [`Netlist`], one cached lint report, and (through the
//! kernel cache) one compiled simulation kernel. Names are a mutable alias
//! layer on top: the latest registration of a name wins, the digest entry
//! is immutable.
//!
//! Derived artifacts attach to the entry lazily: the lint report JSON is
//! computed once per digest on first demand and served from the entry
//! afterwards (`lint_builds` vs `lint_hits` in the counters), and the two
//! canonical wire forms — `.bench` and structural Verilog, both emitted
//! from the stored netlist rather than echoing upload bytes — are rendered
//! once per digest the same way. Uploads in either format therefore
//! converge to identical stored artifacts whenever their structures match.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fbt_netlist::frontend::{self, Format};
use fbt_netlist::json::ObjWriter;
use fbt_netlist::{synth, Netlist};

/// Render a digest the way the wire protocol spells it: 32 lowercase hex
/// digits.
pub fn digest_hex(digest: u128) -> String {
    format!("{digest:032x}")
}

/// Parse a 32-hex-digit digest back (the inverse of [`digest_hex`]).
pub fn parse_digest(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// One immutable stored circuit and its lazily computed derived artifacts.
#[derive(Debug)]
pub struct CircuitEntry {
    /// The name this structure was first registered under.
    pub name: String,
    /// The structural digest (the store key).
    pub digest: u128,
    /// The parsed, levelized netlist.
    pub net: Arc<Netlist>,
    lint_json: OnceLock<String>,
    bench_text: OnceLock<String>,
    verilog_text: OnceLock<String>,
}

impl CircuitEntry {
    fn new(name: &str, net: Netlist, digest: u128) -> Self {
        CircuitEntry {
            name: name.to_string(),
            digest,
            net: Arc::new(net),
            lint_json: OnceLock::new(),
            bench_text: OnceLock::new(),
            verilog_text: OnceLock::new(),
        }
    }

    /// The circuit emitted in `format`, rendered once per digest and served
    /// from the entry afterwards. Both forms are derived from the stored
    /// netlist, so two structurally identical uploads — regardless of which
    /// format either arrived in — serve byte-identical artifacts.
    pub fn emitted_text(&self, format: Format) -> &str {
        let slot = match format {
            Format::Bench => &self.bench_text,
            Format::Verilog => &self.verilog_text,
        };
        slot.get_or_init(|| frontend::write(&self.net, format))
    }

    /// The canonical lint report JSON for this circuit, computed once per
    /// digest. `counters` records whether this call built or reused it.
    pub fn lint_json(&self, counters: &StoreCounters) -> &str {
        let mut built = false;
        let report = self.lint_json.get_or_init(|| {
            built = true;
            fbt_lint::lint_netlist(&self.net).to_json()
        });
        if built {
            counters.lint_builds.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.lint_hits.fetch_add(1, Ordering::Relaxed);
        }
        report
    }

    /// The interface facts as a JSON object.
    pub fn describe_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.str("name", &self.name)
            .str("digest", &digest_hex(self.digest))
            .num("inputs", self.net.num_inputs())
            .num("outputs", self.net.num_outputs())
            .num("dffs", self.net.num_dffs())
            .num("nodes", self.net.num_nodes());
        o.finish()
    }
}

/// Monotone store activity counters (process lifetime).
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// New digests inserted.
    pub inserts: AtomicUsize,
    /// Registrations that found their digest already stored.
    pub dedup_hits: AtomicUsize,
    /// Successful lookups by name or digest.
    pub lookups: AtomicUsize,
    /// Lookups that matched nothing.
    pub misses: AtomicUsize,
    /// Lint reports computed.
    pub lint_builds: AtomicUsize,
    /// Lint reports served from the entry cache.
    pub lint_hits: AtomicUsize,
}

/// The content-addressed store: digest → entry, plus a name alias index.
#[derive(Debug, Default)]
pub struct ContentStore {
    by_digest: Mutex<HashMap<u128, Arc<CircuitEntry>>>,
    by_name: Mutex<HashMap<String, u128>>,
    /// Activity counters, surfaced by the `/stats` endpoint.
    pub counters: StoreCounters,
}

impl ContentStore {
    /// An empty store.
    pub fn new() -> Self {
        ContentStore::default()
    }

    /// A store pre-loaded with the 18-circuit benchmark catalog: the genuine
    /// `s27` plus the 17 synthetic ISCAS89-profile circuits (unscaled), the
    /// same set the CI lint and kernel steps cover.
    pub fn with_catalog() -> Self {
        let store = ContentStore::new();
        store.register(fbt_netlist::s27());
        for spec in synth::iscas_small() {
            store.register(synth::generate(&spec));
        }
        store
    }

    /// Register an already-parsed netlist under its own name. Returns the
    /// (possibly pre-existing) entry.
    pub fn register(&self, net: Netlist) -> Arc<CircuitEntry> {
        let name = net.name().to_string();
        self.register_as(net, &name)
    }

    /// Register a netlist under an explicit alias name, leaving any existing
    /// alias for the netlist's own name untouched. Used for derived
    /// artifacts (e.g. the `<name>.fixed` repair of a lint+fix job), which
    /// must not re-point the original name.
    pub fn register_as(&self, net: Netlist, name: &str) -> Arc<CircuitEntry> {
        let digest = fbt_sim::kernel::structural_digest(&net);
        let entry = {
            let mut by_digest = self.by_digest.lock().expect("store poisoned");
            if let Some(existing) = by_digest.get(&digest) {
                self.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                existing.clone()
            } else {
                self.counters.inserts.fetch_add(1, Ordering::Relaxed);
                let entry = Arc::new(CircuitEntry::new(name, net, digest));
                by_digest.insert(digest, entry.clone());
                entry
            }
        };
        self.by_name
            .lock()
            .expect("store poisoned")
            .insert(name.to_string(), digest);
        entry
    }

    /// Parse circuit text and register it. When `format` is `None` the wire
    /// format is sniffed from the text itself ([`Format::sniff`]); `name` is
    /// used when the text carries none (structural Verilog names its own
    /// module). Returns the detected format alongside the entry.
    pub fn register_text(
        &self,
        text: &str,
        name: &str,
        format: Option<Format>,
    ) -> Result<(Format, Arc<CircuitEntry>), String> {
        let format = format.unwrap_or_else(|| Format::sniff(text));
        let net = frontend::parse(text, name, format).map_err(|e| format!("{format}: {e}"))?;
        Ok((format, self.register(net)))
    }

    /// Parse `.bench` text and register it ([`ContentStore::register_text`]
    /// pinned to [`Format::Bench`]).
    pub fn register_bench_text(&self, text: &str, name: &str) -> Result<Arc<CircuitEntry>, String> {
        self.register_text(text, name, Some(Format::Bench))
            .map(|(_, entry)| entry)
    }

    /// Look up by name or by 32-hex-digit digest.
    pub fn get(&self, key: &str) -> Option<Arc<CircuitEntry>> {
        let digest = parse_digest(key).or_else(|| {
            self.by_name
                .lock()
                .expect("store poisoned")
                .get(key)
                .copied()
        });
        let entry = digest.and_then(|d| {
            self.by_digest
                .lock()
                .expect("store poisoned")
                .get(&d)
                .cloned()
        });
        match &entry {
            Some(_) => self.counters.lookups.fetch_add(1, Ordering::Relaxed),
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        entry
    }

    /// All entries, sorted by name (deterministic listing order).
    pub fn list(&self) -> Vec<Arc<CircuitEntry>> {
        let mut entries: Vec<Arc<CircuitEntry>> = self
            .by_digest
            .lock()
            .expect("store poisoned")
            .values()
            .cloned()
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Number of distinct stored structures.
    pub fn len(&self) -> usize {
        self.by_digest.lock().expect("store poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store counters as a JSON object.
    pub fn counters_json(&self) -> String {
        let c = &self.counters;
        let mut o = ObjWriter::new();
        o.num("circuits", self.len())
            .num("inserts", c.inserts.load(Ordering::Relaxed))
            .num("dedup_hits", c.dedup_hits.load(Ordering::Relaxed))
            .num("lookups", c.lookups.load(Ordering::Relaxed))
            .num("misses", c.misses.load(Ordering::Relaxed))
            .num("lint_builds", c.lint_builds.load(Ordering::Relaxed))
            .num("lint_hits", c.lint_hits.load(Ordering::Relaxed));
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_hex_round_trips() {
        let d = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_eq!(parse_digest(&digest_hex(d)), Some(d));
        assert_eq!(parse_digest("xyz"), None);
        assert_eq!(parse_digest("00"), None);
    }

    #[test]
    fn structurally_identical_uploads_share_one_entry() {
        let store = ContentStore::new();
        let a = store.register(fbt_netlist::s27());
        let b = store.register(fbt_netlist::s27());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
        assert_eq!(store.counters.inserts.load(Ordering::Relaxed), 1);
        assert_eq!(store.counters.dedup_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lookup_by_name_and_digest() {
        let store = ContentStore::with_catalog();
        assert_eq!(store.len(), 18, "the 18-circuit catalog");
        let by_name = store.get("s27").expect("catalog circuit");
        let by_digest = store.get(&digest_hex(by_name.digest)).expect("by digest");
        assert!(Arc::ptr_eq(&by_name, &by_digest));
        assert!(store.get("nonesuch").is_none());
    }

    #[test]
    fn lint_report_is_computed_once_per_digest() {
        let store = ContentStore::new();
        let entry = store.register(fbt_netlist::s27());
        let first = entry.lint_json(&store.counters).to_string();
        let second = entry.lint_json(&store.counters).to_string();
        assert_eq!(first, second);
        assert_eq!(store.counters.lint_builds.load(Ordering::Relaxed), 1);
        assert_eq!(store.counters.lint_hits.load(Ordering::Relaxed), 1);
        // Byte-identical to the direct lint path (the golden CI reports).
        assert_eq!(first, fbt_lint::lint_netlist(&entry.net).to_json());
    }

    #[test]
    fn bench_text_uploads_parse_and_dedup() {
        let store = ContentStore::new();
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
        let a = store.register_bench_text(text, "tiny").expect("parses");
        assert_eq!(a.name, "tiny");
        assert_eq!(a.net.num_inputs(), 1);
        // Same structure under a different name: one entry, two aliases.
        let b = store.register_bench_text(text, "alias").expect("parses");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&store.get("alias").unwrap(), &a));
        // Malformed text is a clean error.
        assert!(store.register_bench_text("y = NOT(a)\n", "bad").is_err());
    }

    #[test]
    fn verilog_uploads_dedup_against_bench_twins() {
        let store = ContentStore::new();
        // Upload the `.bench` twin first, then its Verilog re-emission:
        // the sniffer detects the second format and the store dedups it
        // onto the same digest entry (parsed twins lower canonically, so
        // the digests agree across formats).
        let b = frontend::write(&fbt_netlist::s27(), Format::Bench);
        let (bf, bench_entry) = store.register_text(&b, "s27", None).expect("parses");
        assert_eq!(bf, Format::Bench);
        let v = frontend::write(&bench_entry.net, Format::Verilog);
        let (vf, twin) = store.register_text(&v, "s27v", None).expect("parses");
        assert_eq!(vf, Format::Verilog);
        assert!(Arc::ptr_eq(&bench_entry, &twin));
        assert_eq!(store.len(), 1);
        // An explicit format overrides sniffing (and its mismatch errors).
        assert!(store
            .register_text(&v, "s27v", Some(Format::Bench))
            .is_err());
    }

    #[test]
    fn emitted_forms_are_stable_and_round_trip() {
        let store = ContentStore::new();
        let b0 = frontend::write(&fbt_netlist::s27(), Format::Bench);
        let (_, entry) = store.register_text(&b0, "s27", None).expect("parses");
        let b = entry.emitted_text(Format::Bench).to_string();
        let v = entry.emitted_text(Format::Verilog).to_string();
        assert_eq!(b, entry.emitted_text(Format::Bench), "rendered once");
        assert!(v.contains("\nmodule "));
        // Each emitted form re-imports onto the same structure.
        for (format, text) in [(Format::Bench, &b), (Format::Verilog, &v)] {
            let net = frontend::parse(text, "twin", format).expect("round-trips");
            assert_eq!(fbt_sim::kernel::structural_digest(&net), entry.digest);
        }
    }
}
