//! SAT-certified netlist autofixes (`fbt-lint --fix`).
//!
//! Each structural rule that admits a mechanical repair contributes a
//! *proposer* that inspects the current circuit and emits one
//! [`fbt_netlist::Rewrite`] batch:
//!
//! * **`const-fold`** — consumers of structurally constant gates absorb the
//!   constant (non-controlling fanins dropped, parity folded into XOR/XNOR
//!   kinds, single-survivor gates demoted to `BUF`/`NOT`); constant gates
//!   that drive a primary output or a flip-flop D input are pinned in place
//!   as canonical constant generators (`XOR(s,s)` = 0, `XNOR(s,s)` = 1 over
//!   the first source `s`), everything else is left for dead-cone removal.
//! * **`chain-collapse`** — buffer/inverter chains resolve to their root:
//!   parity-even chain gates are redirected onto the root and removed
//!   (PO drivers, whose names must survive, become depth-1 `BUF(root)`),
//!   parity-odd ones become depth-1 `NOT(root)`.
//! * **`dup-dedup`** — SAT-confirmed duplicate cones merge onto the
//!   first-seen representative; duplicate PO drivers stay behind as
//!   `BUF(kept)` so output names never change.
//! * **`dead-cone`** — gates with no path to any primary output or
//!   flip-flop D input are deleted as a closed set.
//!
//! Every batch is certified before it is committed: the original and the
//! rewritten circuit are fed to an [`fbt_sat`] XOR-miter over all primary
//! outputs and next-state lines, and only an UNSAT verdict (no
//! distinguishing assignment exists) lets the batch apply. A SAT verdict
//! downgrades the batch to a *refuted* suggestion carrying the
//! counterexample witness — by construction this should never happen, so a
//! refutation loudly signals a proposer/semantics disagreement rather than
//! silently corrupting the netlist.
//!
//! Batches run in a deterministic fixpoint (const-fold, chain-collapse,
//! dup-dedup, dead-cone; re-lint; repeat) until a round applies nothing or
//! [`FixConfig::max_rounds`] is hit. Proposers are pure functions of the
//! circuit and the certifier runs one deterministic CDCL solve per batch,
//! so verdicts and counterexample witnesses, and with them the repaired
//! netlist and the fix report, are byte-reproducible.
//!
//! One repair precedes the fixpoint: a circuit that fails to *build* only
//! because of undriven nets is repaired at the `.bench` level by stubbing
//! each undriven net as a primary input (in first-reference order). That
//! fix cannot be miter-certified — there is no original netlist semantics
//! to compare against — and is recorded as certified *by construction*:
//! the stubbed circuit **is** the free-variable reading of the document,
//! exactly the semantics the miter itself assigns to unconstrained nets.
//! Any other build blocker (combinational cycles, redefinitions, shadowed
//! inputs) has no mechanical repair and blocks the fix engine entirely.

use std::collections::BTreeMap;
use std::time::Instant;

use fbt_netlist::frontend::RawDoc;
use fbt_netlist::json::{ArrWriter, ObjWriter};
use fbt_netlist::{GateKind, Netlist, NetlistError, NodeId, Rewrite, RewriteResult};
use fbt_sat::{Miter, MiterOutcome, MiterWitness};

use crate::graph::RawCircuit;
use crate::{dupes, structural};

/// Fix-engine tuning knobs.
#[derive(Debug, Clone)]
pub struct FixConfig {
    /// Fixpoint round cap: each round proposes every batch kind once.
    pub max_rounds: usize,
}

impl Default for FixConfig {
    fn default() -> Self {
        FixConfig { max_rounds: 8 }
    }
}

/// How an applied fix was certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certificate {
    /// An XOR-miter over all POs and next-state lines was UNSAT.
    MiterUnsat,
    /// Undriven-net stubbing: the repair *defines* the circuit's semantics
    /// (free-variable reading), so there is nothing to compare against.
    ByConstruction,
}

impl Certificate {
    /// Stable keyword for JSON output.
    pub fn keyword(self) -> &'static str {
        match self {
            Certificate::MiterUnsat => "miter-unsat",
            Certificate::ByConstruction => "by-construction",
        }
    }
}

/// One committed fix batch.
#[derive(Debug, Clone)]
pub struct AppliedFix {
    /// Which proposer produced the batch (`const-fold`, `chain-collapse`,
    /// `dup-dedup`, `dead-cone`, `undriven-stub`).
    pub rule: &'static str,
    /// Fixpoint round (1-based; 0 = the pre-fixpoint stubbing repair).
    pub round: usize,
    /// Number of elementary edits in the batch.
    pub edits: usize,
    /// Human-readable summary (deterministic: counts only).
    pub description: String,
    /// How the batch was certified.
    pub certificate: Certificate,
}

/// A fix batch the SAT miter refuted (or the rewrite layer rejected):
/// reported as a suggestion, never applied.
#[derive(Debug, Clone)]
pub struct RefutedFix {
    /// Which proposer produced the batch.
    pub rule: &'static str,
    /// Fixpoint round the refutation happened in.
    pub round: usize,
    /// Summary of what the batch would have done.
    pub description: String,
    /// Rendered counterexample (`name=0 name=1 …`), empty if the rewrite
    /// was rejected structurally rather than semantically.
    pub witness: String,
}

/// The result of a fix-engine run.
#[derive(Debug, Clone, Default)]
pub struct FixOutcome {
    /// The repaired circuit (identical to the input if nothing applied);
    /// `None` when the run was [blocked](FixOutcome::blocked).
    pub repaired: Option<Netlist>,
    /// Batches that were certified and committed, in application order.
    pub applied: Vec<AppliedFix>,
    /// Batches the certifier refused, with counterexamples.
    pub refuted: Vec<RefutedFix>,
    /// Why the engine could not run at all (unfixable build errors).
    pub blocked: Option<String>,
    /// Old name → surviving name (`None` = the net was removed without a
    /// replacement), composed across every applied batch. Keys are the
    /// names of the first buildable circuit (after stubbing, if any).
    pub provenance: BTreeMap<String, Option<String>>,
    /// Undriven nets stubbed as primary inputs, in first-reference order.
    pub stubbed_inputs: Vec<String>,
    /// Fixpoint rounds entered (the last one applies nothing).
    pub rounds: usize,
    /// Certification miter queries issued.
    pub miter_queries: usize,
    /// Total wall-clock microseconds spent in certification.
    pub miter_micros: u128,
}

impl FixOutcome {
    /// Did any committed batch actually change the circuit?
    pub fn net_changed(&self) -> bool {
        !self.applied.is_empty()
    }

    /// Deterministic JSON summary (no wall-clock fields): spliced into
    /// `fbt-lint --json` output and the `fbt-serve` job result.
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.num("applied", self.applied.len());
        o.num("refuted", self.refuted.len());
        o.num("rounds", self.rounds);
        o.num("stubbed_inputs", self.stubbed_inputs.len());
        o.bool("changed", self.net_changed());
        let mut fixes = ArrWriter::new();
        for f in &self.applied {
            let mut fo = ObjWriter::new();
            fo.str("rule", f.rule)
                .num("round", f.round)
                .num("edits", f.edits)
                .str("certificate", f.certificate.keyword())
                .str("description", &f.description);
            fixes.raw(&fo.finish());
        }
        o.raw("fixes", &fixes.finish());
        let mut refs = ArrWriter::new();
        for r in &self.refuted {
            let mut ro = ObjWriter::new();
            ro.str("rule", r.rule)
                .num("round", r.round)
                .str("description", &r.description)
                .str("witness", &r.witness);
            refs.raw(&ro.finish());
        }
        o.raw("refutations", &refs.finish());
        match &self.blocked {
            Some(reason) => o.str("blocked", reason),
            None => o.raw("blocked", "null"),
        };
        o.finish()
    }
}

/// The verdict of certifying one rewrite batch.
#[derive(Debug)]
pub enum Certified {
    /// The miter proved equivalence; here is the rewritten circuit.
    Equivalent(RewriteResult),
    /// The miter found a distinguishing assignment.
    Refuted(MiterWitness),
}

/// Apply `rw` to `net` and certify the result with an XOR-miter over all
/// POs and next-state lines. `Err` means the rewrite itself was rejected
/// (structurally invalid); `Ok(Refuted(..))` means it built but is not
/// equivalent.
pub fn certify_rewrite(net: &Netlist, rw: &Rewrite) -> Result<Certified, String> {
    let result = rw.apply(net).map_err(|e| e.to_string())?;
    let miter = Miter::build(net, &result.net).map_err(|e| e.to_string())?;
    match miter.solve() {
        MiterOutcome::Equivalent => Ok(Certified::Equivalent(result)),
        MiterOutcome::NotEquivalent(w) => Ok(Certified::Refuted(w)),
    }
}

/// Run the fix engine over an already-valid netlist.
pub fn fix_netlist(net: &Netlist, cfg: &FixConfig) -> FixOutcome {
    let mut out = FixOutcome::default();
    fixpoint(net.clone(), cfg, &mut out);
    out
}

/// Run the fix engine over a parsed-but-unvalidated `.bench` document:
/// stubs undriven nets when that is the only build blocker, then runs the
/// fixpoint. Unfixable build errors set [`FixOutcome::blocked`].
pub fn fix_raw(raw: &RawDoc, cfg: &FixConfig) -> FixOutcome {
    let mut out = FixOutcome::default();
    match raw.to_builder().and_then(|b| b.finish()) {
        Ok(net) => fixpoint(net, cfg, &mut out),
        Err(NetlistError::UndefinedName(_)) => stub_and_fix(raw, cfg, &mut out),
        Err(e) => out.blocked = Some(format!("unfixable build error: {e}")),
    }
    out
}

/// Parse circuit text in the given wire format and run [`fix_raw`]. A parse
/// error is returned unfixed — the CLI maps it to exit code 2 with the
/// syntax diagnostics intact.
pub fn fix_text(
    text: &str,
    name: &str,
    format: fbt_netlist::frontend::Format,
    cfg: &FixConfig,
) -> Result<FixOutcome, NetlistError> {
    let raw = fbt_netlist::frontend::parse_raw(text, name, format)?;
    Ok(fix_raw(&raw, cfg))
}

/// Parse `.bench` text and run [`fix_raw`] ([`fix_text`] with the `.bench`
/// format).
pub fn fix_bench_text(text: &str, name: &str, cfg: &FixConfig) -> Result<FixOutcome, NetlistError> {
    fix_text(text, name, fbt_netlist::frontend::Format::Bench, cfg)
}

/// Undriven nets are the only build blocker: stub each as a PI (in
/// first-reference order) and continue into the fixpoint.
fn stub_and_fix(raw: &RawDoc, cfg: &FixConfig, out: &mut FixOutcome) {
    let undriven: Vec<String> = RawCircuit::from_raw_bench(raw)
        .nodes
        .iter()
        .filter(|n| n.kind.is_none())
        .map(|n| n.name.clone())
        .collect();
    if undriven.is_empty() {
        out.blocked = Some("undefined name with no undriven nets (internal)".to_string());
        return;
    }
    let mut b = match raw.to_builder() {
        Ok(b) => b,
        Err(e) => {
            out.blocked = Some(format!("unfixable build error: {e}"));
            return;
        }
    };
    for name in &undriven {
        if let Err(e) = b.input(name) {
            out.blocked = Some(format!("cannot stub `{name}` as an input: {e}"));
            return;
        }
    }
    match b.finish() {
        Ok(net) => {
            out.applied.push(AppliedFix {
                rule: "undriven-stub",
                round: 0,
                edits: undriven.len(),
                description: format!(
                    "stubbed {} undriven net(s) as free primary input(s)",
                    undriven.len()
                ),
                certificate: Certificate::ByConstruction,
            });
            out.stubbed_inputs = undriven;
            fixpoint(net, cfg, out);
        }
        Err(e) => {
            out.blocked = Some(format!(
                "undriven nets stubbed, but the circuit still fails to build: {e}"
            ));
        }
    }
}

/// The deterministic repair loop: propose → certify → apply until a round
/// commits nothing or the round cap is reached.
fn fixpoint(initial: Netlist, cfg: &FixConfig, out: &mut FixOutcome) {
    let mut current = initial;
    out.provenance = current
        .node_ids()
        .map(|id| {
            let n = current.node_name(id).to_string();
            (n.clone(), Some(n))
        })
        .collect();
    let mut seen_refuted: Vec<(&'static str, String)> = Vec::new();
    let rounds = cfg.max_rounds.max(1);
    for round in 1..=rounds {
        out.rounds = round;
        let mut any_applied = false;
        for rule in ["const-fold", "chain-collapse", "dup-dedup", "dead-cone"] {
            let proposal = match rule {
                "const-fold" => propose_const_fold(&current),
                "chain-collapse" => propose_chain_collapse(&current),
                "dup-dedup" => propose_dup_dedup(&current),
                _ => propose_dead_cone(&current),
            };
            let Some((rw, description)) = proposal else {
                continue;
            };
            let started = Instant::now();
            let verdict = certify_rewrite(&current, &rw);
            out.miter_queries += 1;
            out.miter_micros += started.elapsed().as_micros();
            match verdict {
                Ok(Certified::Equivalent(result)) => {
                    compose_provenance(&mut out.provenance, &result.provenance);
                    out.applied.push(AppliedFix {
                        rule,
                        round,
                        edits: rw.num_edits(),
                        description,
                        certificate: Certificate::MiterUnsat,
                    });
                    current = result.net;
                    any_applied = true;
                }
                Ok(Certified::Refuted(witness)) => {
                    let key = (rule, description.clone());
                    if !seen_refuted.contains(&key) {
                        seen_refuted.push(key);
                        out.refuted.push(RefutedFix {
                            rule,
                            round,
                            description,
                            witness: witness.render(),
                        });
                    }
                }
                Err(reject) => {
                    let key = (rule, description.clone());
                    if !seen_refuted.contains(&key) {
                        seen_refuted.push(key);
                        out.refuted.push(RefutedFix {
                            rule,
                            round,
                            description: format!("{description} (rewrite rejected: {reject})"),
                            witness: String::new(),
                        });
                    }
                }
            }
        }
        if !any_applied {
            break;
        }
    }
    out.repaired = Some(current);
}

/// `prov` maps original → current names; `step` maps current → next.
fn compose_provenance(
    prov: &mut BTreeMap<String, Option<String>>,
    step: &BTreeMap<String, Option<String>>,
) {
    for survivor in prov.values_mut() {
        if let Some(cur) = survivor {
            *survivor = step.get(cur.as_str()).cloned().flatten();
        }
    }
}

/// The source node every canonical constant generator is built over: the
/// first primary input, or the first flip-flop of an input-less circuit.
fn canonical_seed(net: &Netlist) -> Option<String> {
    net.inputs()
        .first()
        .or_else(|| net.dffs().first())
        .map(|&id| net.node_name(id).to_string())
}

/// Is `id` already the canonical constant generator for value `v`?
fn is_canonical_const(net: &Netlist, id: NodeId, seed: &str, v: bool) -> bool {
    let node = net.node(id);
    let want = if v { GateKind::Xnor } else { GateKind::Xor };
    node.kind() == want
        && node.fanins().len() == 2
        && node.fanins().iter().all(|&f| net.node_name(f) == seed)
}

/// Does `id` drive a flip-flop's D input?
fn drives_dff(net: &Netlist, id: NodeId) -> bool {
    net.node(id)
        .fanouts()
        .iter()
        .any(|&f| net.node(f).kind() == GateKind::Dff)
}

/// Propose the const-fold batch (see module docs).
fn propose_const_fold(net: &Netlist) -> Option<(Rewrite, String)> {
    let c = RawCircuit::from_netlist(net);
    let konst = structural::propagate_constants(&c);
    let seed = canonical_seed(net)?;
    let mut rw = Rewrite::new();
    let mut folded = 0usize;
    let mut pinned = 0usize;
    for id in net.node_ids() {
        let node = net.node(id);
        if node.kind().is_source() {
            continue;
        }
        if let Some(v) = konst[id.index()] {
            // A constant gate only needs to survive where its *name* is
            // load-bearing (PO driver / FF D driver); pin it as a canonical
            // generator there, let dead-cone removal reap it elsewhere.
            if !(net.is_po_driver(id) || drives_dff(net, id)) {
                continue;
            }
            if is_canonical_const(net, id, &seed, v) {
                continue;
            }
            let kind = if v { GateKind::Xnor } else { GateKind::Xor };
            rw.redefine(net.node_name(id), kind, vec![seed.clone(), seed.clone()]);
            pinned += 1;
        } else if node.fanins().iter().any(|&f| konst[f.index()].is_some()) {
            if let Some((kind, fanins)) = absorb_constants(net, id, &konst) {
                rw.redefine(net.node_name(id), kind, fanins);
                folded += 1;
            }
        }
    }
    if rw.is_empty() {
        None
    } else {
        Some((
            rw,
            format!("folded {folded} constant-fed gate(s), pinned {pinned} constant driver(s)"),
        ))
    }
}

/// Recompute a non-constant gate's definition with its constant fanins
/// absorbed. Returns `None` for shapes that cannot occur on a non-constant
/// gate (defensive).
fn absorb_constants(
    net: &Netlist,
    id: NodeId,
    konst: &[Option<bool>],
) -> Option<(GateKind, Vec<String>)> {
    let node = net.node(id);
    let keep: Vec<String> = node
        .fanins()
        .iter()
        .filter(|f| konst[f.index()].is_none())
        .map(|&f| net.node_name(f).to_string())
        .collect();
    if keep.is_empty() {
        return None; // all-constant fanins ⇒ the gate itself is constant
    }
    match node.kind() {
        // Non-controlling constants vanish: AND/NAND drop 1s, OR/NOR drop
        // 0s (a controlling constant would make the gate constant).
        GateKind::And | GateKind::Or if keep.len() == 1 => Some((GateKind::Buf, keep)),
        GateKind::Nand | GateKind::Nor if keep.len() == 1 => Some((GateKind::Not, keep)),
        k @ (GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor) => Some((k, keep)),
        k @ (GateKind::Xor | GateKind::Xnor) => {
            let ones = node
                .fanins()
                .iter()
                .filter(|f| konst[f.index()] == Some(true))
                .count();
            let mut kind = k;
            if ones % 2 == 1 {
                kind = if kind == GateKind::Xor {
                    GateKind::Xnor
                } else {
                    GateKind::Xor
                };
            }
            if keep.len() == 1 {
                kind = if kind == GateKind::Xor {
                    GateKind::Buf
                } else {
                    GateKind::Not
                };
            }
            Some((kind, keep))
        }
        // A BUF/NOT of a constant is itself constant — unreachable here.
        _ => None,
    }
}

/// Propose the chain-collapse batch (see module docs).
fn propose_chain_collapse(net: &Netlist) -> Option<(Rewrite, String)> {
    let c = RawCircuit::from_netlist(net);
    let alias = structural::chain_aliases(&c);
    let mut rw = Rewrite::new();
    let mut collapsed = 0usize;
    let mut removed = 0usize;
    for id in net.node_ids() {
        let node = net.node(id);
        if !matches!(node.kind(), GateKind::Buf | GateKind::Not) || node.fanins().len() != 1 {
            continue;
        }
        let (root, inverted) = alias[id.index()];
        if root == id.index() {
            continue; // chain cycle fallback: nothing safe to do
        }
        let name = net.node_name(id);
        let root_name = net.node_name(NodeId(root as u32));
        if inverted {
            // Canonical depth-1 inverter off the chain root.
            if node.kind() == GateKind::Not && node.fanins()[0].index() == root {
                continue;
            }
            rw.redefine(name, GateKind::Not, vec![root_name.to_string()]);
            collapsed += 1;
        } else if net.is_po_driver(id) {
            // The name must survive for the OUTPUT statement: depth-1 BUF.
            if node.kind() == GateKind::Buf && node.fanins()[0].index() == root {
                continue;
            }
            rw.redefine(name, GateKind::Buf, vec![root_name.to_string()]);
            collapsed += 1;
        } else {
            // Parity-even and not name-load-bearing: splice it out.
            rw.redirect(name, root_name);
            rw.remove(name);
            removed += 1;
        }
    }
    if rw.is_empty() {
        None
    } else {
        Some((
            rw,
            format!("collapsed {collapsed} chain gate(s) to depth 1, spliced out {removed}"),
        ))
    }
}

/// Propose the dup-dedup batch (see module docs).
fn propose_dup_dedup(net: &Netlist) -> Option<(Rewrite, String)> {
    let pairs = dupes::candidate_pairs(net);
    if pairs.is_empty() {
        return None;
    }
    let mut rw = Rewrite::new();
    let mut merged = 0usize;
    for (kept, dup) in pairs {
        if !dupes::confirm_equivalent(net, kept, dup) {
            continue; // hash/semantics drift: leave it to the dup-cone rule
        }
        let kept_id = NodeId(kept as u32);
        let dup_id = NodeId(dup as u32);
        // If the representative's cone reads the duplicate (possible with
        // forward references), redirecting would close a cycle — skip.
        if net.fanin_cone(kept_id)[dup] {
            continue;
        }
        let kept_name = net.node_name(kept_id).to_string();
        let dup_name = net.node_name(dup_id);
        rw.redirect(dup_name, kept_name.clone());
        if net.is_po_driver(dup_id) {
            rw.redefine(dup_name, GateKind::Buf, vec![kept_name]);
        } else {
            rw.remove(dup_name);
        }
        merged += 1;
    }
    if rw.is_empty() {
        None
    } else {
        Some((rw, format!("merged {merged} duplicate cone(s)")))
    }
}

/// Propose the dead-cone batch (see module docs). The unobservable set is
/// closed under fanin references, so removing all of it at once is valid.
fn propose_dead_cone(net: &Netlist) -> Option<(Rewrite, String)> {
    let c = RawCircuit::from_netlist(net);
    let reached = structural::observable_set(&c);
    let mut rw = Rewrite::new();
    let mut removed = 0usize;
    for id in net.node_ids() {
        if net.node(id).kind().is_source() || reached[id.index()] {
            continue;
        }
        rw.remove(net.node_name(id));
        removed += 1;
    }
    if rw.is_empty() {
        None
    } else {
        Some((rw, format!("removed {removed} unobservable gate(s)")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::{bench, NetlistBuilder};

    fn cfg() -> FixConfig {
        FixConfig::default()
    }

    /// A netlist exercising every proposer at once: a constant cone, a
    /// buffer chain, a duplicate pair and a dangling gate.
    fn messy() -> Netlist {
        let mut b = NetlistBuilder::new("messy");
        b.input("a").unwrap();
        b.input("c").unwrap();
        // Constant: k0 = AND(a, NOT a) = 0 feeds g.
        b.gate(GateKind::Not, "na", &["a"]).unwrap();
        b.gate(GateKind::And, "k0", &["a", "na"]).unwrap();
        b.gate(GateKind::Or, "g", &["k0", "c"]).unwrap();
        // Buffer chain: b1 -> b2 -> b3.
        b.gate(GateKind::Buf, "b1", &["g"]).unwrap();
        b.gate(GateKind::Buf, "b2", &["b1"]).unwrap();
        b.gate(GateKind::Buf, "b3", &["b2"]).unwrap();
        // Duplicate pair.
        b.gate(GateKind::And, "d1", &["a", "c"]).unwrap();
        b.gate(GateKind::And, "d2", &["c", "a"]).unwrap();
        b.gate(GateKind::Or, "y", &["b3", "d1"]).unwrap();
        b.gate(GateKind::Or, "y2", &["d2", "a"]).unwrap();
        // Dangling gate.
        b.gate(GateKind::Xor, "dead", &["a", "c"]).unwrap();
        b.output("y").unwrap();
        b.output("y2").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn fixpoint_repairs_and_certifies_everything() {
        let net = messy();
        let out = fix_netlist(&net, &cfg());
        assert!(out.blocked.is_none());
        assert!(out.refuted.is_empty(), "{:?}", out.refuted);
        assert!(out.net_changed());
        let repaired = out.repaired.as_ref().unwrap();
        // All four proposers fired at least once.
        for rule in ["const-fold", "chain-collapse", "dup-dedup", "dead-cone"] {
            assert!(
                out.applied.iter().any(|f| f.rule == rule),
                "missing {rule}: {:?}",
                out.applied
            );
        }
        // Every applied batch was miter-certified.
        assert!(out
            .applied
            .iter()
            .all(|f| f.certificate == Certificate::MiterUnsat));
        // The repaired circuit is equivalent to the original end-to-end.
        assert!(fbt_sat::check_equivalence(&net, repaired)
            .unwrap()
            .is_equivalent());
        // The dangling XOR and the spliced buffers are gone.
        assert!(repaired.find("dead").is_none());
        assert!(repaired.find("b2").is_none());
        assert_eq!(out.provenance["dead"], None);
        assert_eq!(out.provenance["d2"].as_deref(), Some("d1"));
        // PO names and order survive.
        let pos: Vec<&str> = repaired
            .outputs()
            .iter()
            .map(|&o| repaired.node_name(o))
            .collect();
        assert_eq!(pos, ["y", "y2"]);
    }

    #[test]
    fn fix_is_idempotent_and_deterministic() {
        let net = messy();
        let out1 = fix_netlist(&net, &cfg());
        let repaired = out1.repaired.clone().unwrap();
        let again = fix_netlist(&repaired, &cfg());
        assert!(
            again.applied.is_empty(),
            "second run must apply nothing: {:?}",
            again.applied
        );
        // Byte-determinism: identical emitted text and JSON across runs.
        let out2 = fix_netlist(&net, &cfg());
        assert_eq!(
            bench::write(&out1.repaired.clone().unwrap()),
            bench::write(&out2.repaired.clone().unwrap())
        );
        assert_eq!(out1.to_json(), out2.to_json());
    }

    #[test]
    fn deliberately_wrong_rewrite_is_refuted_with_witness() {
        let mut b = NetlistBuilder::new("wrong");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate(GateKind::And, "y", &["a", "c"]).unwrap();
        b.output("y").unwrap();
        let net = b.finish().unwrap();
        let mut rw = Rewrite::new();
        rw.redefine("y", GateKind::Or, vec!["a".to_string(), "c".to_string()]);
        match certify_rewrite(&net, &rw).unwrap() {
            Certified::Refuted(w) => {
                let rendered = w.render();
                // AND vs OR differ exactly when the inputs differ.
                assert!(
                    rendered.contains("a=") && rendered.contains("c="),
                    "{rendered}"
                );
            }
            Certified::Equivalent(_) => panic!("AND->OR must not certify"),
        }
    }

    #[test]
    fn undriven_nets_are_stubbed_when_sole_blocker() {
        let text = "# u\nINPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        let out = fix_bench_text(text, "u", &cfg()).unwrap();
        assert!(out.blocked.is_none());
        assert_eq!(out.stubbed_inputs, ["ghost"]);
        let repaired = out.repaired.unwrap();
        assert!(repaired.find("ghost").is_some());
        let stub = &out.applied[0];
        assert_eq!(stub.rule, "undriven-stub");
        assert_eq!(stub.certificate, Certificate::ByConstruction);
    }

    #[test]
    fn unfixable_build_errors_block_the_engine() {
        // Combinational cycle: no mechanical repair.
        let text = "# cyc\nINPUT(a)\nOUTPUT(y)\nx = AND(a, y)\ny = AND(a, x)\n";
        let out = fix_bench_text(text, "cyc", &cfg()).unwrap();
        assert!(out.blocked.is_some(), "{:?}", out.blocked);
        assert!(out.repaired.is_none());
        assert!(out.applied.is_empty());
    }

    #[test]
    fn parse_errors_bubble_out_unfixed() {
        assert!(fix_bench_text("y = AND(", "bad", &cfg()).is_err());
    }

    #[test]
    fn clean_circuit_is_a_fixpoint_already() {
        let net = fbt_netlist::s27();
        let out = fix_netlist(&net, &cfg());
        assert!(out.refuted.is_empty());
        // s27's G17 is already a canonical depth-1 inverter; nothing to do.
        assert!(!out.net_changed(), "s27 should be clean: {:?}", out.applied);
        assert_eq!(bench::write(&out.repaired.unwrap()), bench::write(&net));
    }
}
