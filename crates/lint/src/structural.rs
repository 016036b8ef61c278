//! Structural lint passes: everything that needs only the circuit graph,
//! no simulation and no SAT.
//!
//! * `comb-cycle` — combinational feedback loops, found as non-trivial
//!   strongly connected components (Tarjan, iterative) of the gate graph;
//! * `undriven-net` — nets referenced but never defined;
//! * `redefined-net` / `pi-shadowed` — duplicate definitions, with the
//!   input-vs-gate collision split out as its own rule;
//! * `no-sources` — a circuit with no primary inputs and no flip-flops;
//! * `dangling-gate` / `unobservable-gate` — logic that can never reach a
//!   primary output or a flip-flop D-input (the two observable point
//!   classes of scan-based testing);
//! * `const-gate` — gates whose output is structurally constant, found by a
//!   fixpoint of constant propagation with inverter-chain aliasing;
//! * `x-source-ff` — flip-flops that never reach a binary value in
//!   three-valued simulation from the all-X state;
//! * `fanout-outlier` — nets with extreme fanout relative to the average.

use fbt_netlist::{GateKind, Netlist};
use fbt_sim::{tv, Trit};

use crate::diag::{shortlex, Diagnostic, LintReport, Severity};
use crate::graph::RawCircuit;

/// Cap on per-rule diagnostics; beyond it one aggregate note is emitted so
/// reports (and golden files) stay bounded on pathological inputs.
const PER_RULE_CAP: usize = 25;

/// Report the first [`PER_RULE_CAP`] findings in shortlex location order.
fn push_capped(
    report: &mut LintReport,
    circuit: &str,
    rule: &'static str,
    mut diags: Vec<Diagnostic>,
) {
    diags.sort_by(|a, b| shortlex(&a.location).cmp(&shortlex(&b.location)));
    let extra = diags.len().saturating_sub(PER_RULE_CAP);
    for d in diags.into_iter().take(PER_RULE_CAP) {
        report.push(d);
    }
    if extra > 0 {
        report.push(Diagnostic::new(
            rule,
            Severity::Note,
            circuit.to_string(),
            format!("{extra} additional `{rule}` finding(s) suppressed"),
        ));
    }
}

/// Run every graph-only structural pass over the tolerant circuit.
pub fn run(c: &RawCircuit, report: &mut LintReport) {
    undriven_nets(c, report);
    redefinitions(c, report);
    no_sources(c, report);
    comb_cycles(c, report);
    observability(c, report);
    const_gates(c, report);
    fanout_outliers(c, report);
}

fn undriven_nets(c: &RawCircuit, report: &mut LintReport) {
    let mut diags = Vec::new();
    for (i, n) in c.nodes.iter().enumerate() {
        if n.kind.is_none() {
            diags.push(
                Diagnostic::new(
                    "undriven-net",
                    Severity::Error,
                    format!("{}:{}", c.name, n.name),
                    format!("net `{}` is referenced but never driven", n.name),
                )
                .with_help("define the net with a gate, flip-flop or INPUT declaration"),
            );
        }
        let _ = i;
    }
    push_capped(report, &c.name, "undriven-net", diags);
}

fn redefinitions(c: &RawCircuit, report: &mut LintReport) {
    let mut shadow = Vec::new();
    let mut redef = Vec::new();
    for r in &c.redefinitions {
        let name = &c.nodes[r.node].name;
        let loc = match r.line {
            Some(l) => format!("{}:line {}", c.name, l),
            None => format!("{}:{}", c.name, name),
        };
        if r.shadows_input {
            shadow.push(
                Diagnostic::new(
                    "pi-shadowed",
                    Severity::Error,
                    loc,
                    format!("gate output `{name}` shadows a primary input of the same name"),
                )
                .with_help("rename the internal net; the builder rejects this as ShadowedInput"),
            );
        } else {
            redef.push(
                Diagnostic::new(
                    "redefined-net",
                    Severity::Error,
                    loc,
                    format!("signal `{name}` is defined more than once (first definition kept)"),
                )
                .with_help("remove or rename the duplicate definition"),
            );
        }
    }
    push_capped(report, &c.name, "pi-shadowed", shadow);
    push_capped(report, &c.name, "redefined-net", redef);
}

fn no_sources(c: &RawCircuit, report: &mut LintReport) {
    let has_source = c
        .nodes
        .iter()
        .any(|n| matches!(n.kind, Some(k) if k.is_source()));
    if !has_source {
        report.push(
            Diagnostic::new(
                "no-sources",
                Severity::Error,
                c.name.clone(),
                "circuit has no primary inputs and no flip-flops",
            )
            .with_help("a testable circuit needs at least one controllable source"),
        );
    }
}

/// Tarjan strongly-connected components over the combinational subgraph
/// (edges into flip-flops are sequential, not combinational). Iterative to
/// stay stack-safe on deep circuits.
fn comb_cycles(c: &RawCircuit, report: &mut LintReport) {
    let n = c.nodes.len();
    // succ[v]: combinational fanouts (gate consumers only).
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            c.fanouts[v]
                .iter()
                .copied()
                .filter(|&w| c.is_gate(w))
                .collect()
        })
        .collect();

    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, pi)) = call.last() {
            if pi == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if pi < succ[v].len() {
                call.last_mut().unwrap().1 += 1;
                let w = succ[v][pi];
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }

    let mut diags = Vec::new();
    for scc in &mut sccs {
        let cyclic = scc.len() > 1
            || (scc.len() == 1 && c.nodes[scc[0]].fanins.contains(&scc[0]) && c.is_gate(scc[0]));
        if !cyclic {
            continue;
        }
        let mut names: Vec<&str> = scc.iter().map(|&i| c.nodes[i].name.as_str()).collect();
        names.sort_unstable();
        let shown = names.iter().take(5).copied().collect::<Vec<_>>().join(", ");
        let suffix = if names.len() > 5 { ", ..." } else { "" };
        diags.push(
            Diagnostic::new(
                "comb-cycle",
                Severity::Error,
                format!("{}:{}", c.name, names[0]),
                format!(
                    "combinational cycle through {} gate(s): {shown}{suffix}",
                    names.len()
                ),
            )
            .with_help("break the loop with a flip-flop or remove the feedback path"),
        );
    }
    // Deterministic order: by location (the smallest member name).
    diags.sort_by(|a, b| a.location.cmp(&b.location));
    push_capped(report, &c.name, "comb-cycle", diags);
}

/// Reverse reachability from every observable point (PO drivers and
/// flip-flop D-drivers). Gates outside the reached set can never influence
/// a test response; those with no fanouts at all are `dangling-gate`, the
/// rest `unobservable-gate`.
fn observability(c: &RawCircuit, report: &mut LintReport) {
    let reached = observable_set(c);
    let mut dangling = Vec::new();
    let mut unobservable = Vec::new();
    for (i, n) in c.nodes.iter().enumerate() {
        if !c.is_gate(i) || reached[i] {
            continue;
        }
        if c.fanouts[i].is_empty() {
            dangling.push(
                Diagnostic::new(
                    "dangling-gate",
                    Severity::Warning,
                    c.location(i),
                    format!("gate `{}` drives nothing and no primary output", n.name),
                )
                .with_help("remove the gate or connect it to an output"),
            );
        } else {
            unobservable.push(
                Diagnostic::new(
                    "unobservable-gate",
                    Severity::Warning,
                    c.location(i),
                    format!(
                        "gate `{}` has no path to any primary output or flip-flop D-input",
                        n.name
                    ),
                )
                .with_help(
                    "faults on this gate are undetectable; ATPG budget spent here is wasted",
                ),
            );
        }
    }
    push_capped(report, &c.name, "dangling-gate", dangling);
    push_capped(report, &c.name, "unobservable-gate", unobservable);
}

/// The set of nodes with a combinational path to an observable point.
pub fn observable_set(c: &RawCircuit) -> Vec<bool> {
    let mut reached = vec![false; c.nodes.len()];
    let mut queue: Vec<usize> = c.observable_points();
    for &p in &queue {
        reached[p] = true;
    }
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &f in &c.nodes[v].fanins {
            // Fanins of a flip-flop D are themselves observable points
            // (already seeded); do not walk backwards *through* a DFF here.
            if c.nodes[v].kind == Some(GateKind::Dff) {
                continue;
            }
            if !reached[f] {
                reached[f] = true;
                queue.push(f);
            }
        }
    }
    reached
}

/// Structural constant propagation to a fixpoint.
///
/// Returns, per node, `Some(v)` when the node's value is `v` under every
/// input assignment. Sources (inputs, flip-flops, undriven nets) are free.
/// Beyond plain constant folding, inverter/buffer chains are resolved to
/// `(root, inverted)` aliases so complementary fanin pairs fold:
/// `AND(x, NOT(x))` is 0, `XOR(x, x)` is 0, `XNOR(x, NOT(x))` is 0.
pub fn propagate_constants(c: &RawCircuit) -> Vec<Option<bool>> {
    let n = c.nodes.len();
    let alias = compute_aliases(c);
    let mut val: Vec<Option<bool>> = vec![None; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if val[i].is_some() || !c.is_gate(i) {
                continue;
            }
            let kind = c.nodes[i].kind.expect("is_gate implies kind");
            if let Some(v) = eval_gate_const(c, kind, &c.nodes[i].fanins, &val, &alias) {
                val[i] = Some(v);
                changed = true;
            }
        }
        if !changed {
            return val;
        }
    }
}

fn eval_gate_const(
    c: &RawCircuit,
    kind: GateKind,
    fanins: &[usize],
    val: &[Option<bool>],
    alias: &[(usize, bool)],
) -> Option<bool> {
    let _ = c;
    // A controlling constant on any fanin decides AND/NAND/OR/NOR.
    if let (Some(cv), Some(co)) = (kind.controlling_value(), kind.controlled_output()) {
        if fanins.iter().any(|&f| val[f] == Some(cv)) {
            return Some(co);
        }
    }
    // All fanins constant: evaluate the gate.
    if fanins.iter().all(|&f| val[f].is_some()) && !fanins.is_empty() {
        let ins: Vec<bool> = fanins.iter().map(|&f| val[f].unwrap()).collect();
        return Some(kind.eval(&ins));
    }
    // Complementary or equal fanin pairs through inverter chains.
    match kind {
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            for (a, &fa) in fanins.iter().enumerate() {
                for &fb in &fanins[a + 1..] {
                    let (ra, ia) = alias[fa];
                    let (rb, ib) = alias[fb];
                    if ra == rb && ia != ib && val[ra].is_none() {
                        // x AND !x = 0; x OR !x = 1.
                        return Some(match kind {
                            GateKind::And => false,
                            GateKind::Nand => true,
                            GateKind::Or => true,
                            GateKind::Nor => false,
                            _ => unreachable!(),
                        });
                    }
                }
            }
            None
        }
        GateKind::Xor | GateKind::Xnor if fanins.len() == 2 => {
            let (ra, ia) = alias[fanins[0]];
            let (rb, ib) = alias[fanins[1]];
            if ra == rb && val[ra].is_none() {
                let xor = ia != ib; // x XOR x = 0, x XOR !x = 1
                return Some(if kind == GateKind::Xor { xor } else { !xor });
            }
            None
        }
        _ => None,
    }
}

/// Resolve every node through buffer/inverter chains to `(root, inverted)`:
/// public entry for the fix engine's chain-collapse proposer, which rewires
/// chain gates directly onto their roots.
pub fn chain_aliases(c: &RawCircuit) -> Vec<(usize, bool)> {
    compute_aliases(c)
}

/// Resolve every node through buffer/inverter chains to `(root, inverted)`.
/// Cycles in the chain fall back to the node aliasing itself.
fn compute_aliases(c: &RawCircuit) -> Vec<(usize, bool)> {
    let n = c.nodes.len();
    let mut alias: Vec<Option<(usize, bool)>> = vec![None; n];
    for start in 0..n {
        if alias[start].is_some() {
            continue;
        }
        // Walk the chain; `path` collects (node, parity vs. chain end).
        let mut path: Vec<usize> = Vec::new();
        let mut cur = start;
        let (root, root_inv) = loop {
            if let Some(a) = alias[cur] {
                break a;
            }
            if path.contains(&cur) {
                break (cur, false); // chain cycle: fall back to self
            }
            let is_chain = matches!(c.nodes[cur].kind, Some(GateKind::Buf | GateKind::Not))
                && c.nodes[cur].fanins.len() == 1;
            if !is_chain {
                break (cur, false);
            }
            path.push(cur);
            cur = c.nodes[cur].fanins[0];
        };
        // Assign backwards, accumulating inversions.
        let mut inv = root_inv;
        for &v in path.iter().rev() {
            if c.nodes[v].kind == Some(GateKind::Not) {
                inv = !inv;
            }
            alias[v] = Some((root, inv));
        }
        if alias[start].is_none() {
            alias[start] = Some((root, root_inv));
        }
    }
    alias.into_iter().map(|a| a.expect("all aliased")).collect()
}

fn const_gates(c: &RawCircuit, report: &mut LintReport) {
    let val = propagate_constants(c);
    let mut diags = Vec::new();
    for (i, v) in val.iter().enumerate() {
        if let Some(b) = v {
            diags.push(
                Diagnostic::new(
                    "const-gate",
                    Severity::Warning,
                    c.location(i),
                    format!(
                        "gate `{}` is structurally constant {}",
                        c.nodes[i].name,
                        u8::from(*b)
                    ),
                )
                .with_help(
                    "no input can toggle this line; both transition faults on it are untestable",
                ),
            );
        }
    }
    push_capped(report, &c.name, "const-gate", diags);
}

fn fanout_outliers(c: &RawCircuit, report: &mut LintReport) {
    let counts: Vec<(usize, usize)> = (0..c.nodes.len())
        .filter(|&i| c.nodes[i].kind.is_some())
        .map(|i| (i, c.fanouts[i].len()))
        .filter(|&(_, k)| k > 0)
        .collect();
    if counts.len() < 2 {
        return;
    }
    let total: usize = counts.iter().map(|&(_, k)| k).sum();
    let &(worst, max) = counts
        .iter()
        .max_by_key(|&&(i, k)| (k, std::cmp::Reverse(i)))
        .expect("non-empty");
    // Average over the *other* nets, so the outlier does not mask itself.
    let avg = ((total - max) / (counts.len() - 1)).max(1);
    if max >= 16 && max >= 8 * avg {
        report.push(
            Diagnostic::new(
                "fanout-outlier",
                Severity::Note,
                c.location(worst),
                format!(
                    "net `{}` fans out to {max} sinks ({}x the average of {avg})",
                    c.nodes[worst].name,
                    max / avg,
                ),
            )
            .with_help("extreme fanout concentrates detection paths and skews SCOAP estimates"),
        );
    }
}

/// `x-source-ff`: three-valued simulation from the all-X state, primary
/// inputs held at X, for up to `2·|FF|+2` frames. Flip-flops that never
/// reach a binary value are reported in one aggregate note — they depend
/// entirely on scan for initialization, and a signature register observing
/// them may capture X.
pub fn x_source_ffs(net: &Netlist, report: &mut LintReport) {
    let n_ff = net.num_dffs();
    if n_ff == 0 {
        return;
    }
    let pi = vec![Trit::X; net.num_inputs()];
    let frames = (2 * n_ff + 2).min(256);
    let mut state = vec![Trit::X; n_ff];
    let mut ever = vec![false; n_ff];
    let mut ran = 0usize;
    for _ in 0..frames {
        let (_, next) = tv::simulate_frame_tv(net, &pi, &state);
        for (k, t) in next.iter().enumerate() {
            if t.is_specified() {
                ever[k] = true;
            }
        }
        ran += 1;
        if next == state {
            break;
        }
        state = next;
    }
    let stuck: Vec<usize> = (0..n_ff).filter(|&k| !ever[k]).collect();
    if stuck.is_empty() {
        return;
    }
    let first = net.node_name(net.dffs()[stuck[0]]);
    report.push(
        Diagnostic::new(
            "x-source-ff",
            Severity::Note,
            format!("{}:{}", net.name(), first),
            format!(
                "{} of {} flip-flop(s) never reach a binary value in {} frame(s) of \
                 three-valued simulation from the all-X state (first: `{first}`)",
                stuck.len(),
                n_ff,
                ran
            ),
        )
        .with_help(
            "these flip-flops rely on scan for initialization; a signature register \
             observing them may capture X",
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::bench::parse_raw;

    fn lint_src(src: &str) -> LintReport {
        let raw = parse_raw(src, "t").unwrap();
        let c = RawCircuit::from_raw_bench(&raw);
        let mut r = LintReport::new("t");
        run(&c, &mut r);
        r
    }

    fn rules_of(r: &mut LintReport) -> Vec<&'static str> {
        r.diagnostics().iter().map(|d| d.rule_id).collect()
    }

    #[test]
    fn clean_circuit_is_clean() {
        let mut r = lint_src("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
        assert!(r.diagnostics().is_empty(), "{:?}", r.diagnostics());
    }

    #[test]
    fn cycle_and_undriven_detected_together() {
        let mut r = lint_src(
            "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = AND(a, x)\nz = NOT(ghost)\nOUTPUT(z)\n",
        );
        let rules = rules_of(&mut r);
        assert!(rules.contains(&"comb-cycle"), "{rules:?}");
        assert!(rules.contains(&"undriven-net"), "{rules:?}");
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut r = lint_src("INPUT(a)\nOUTPUT(x)\nx = AND(a, x)\n");
        assert!(rules_of(&mut r).contains(&"comb-cycle"));
    }

    #[test]
    fn sequential_loop_is_not_a_cycle() {
        let mut r = lint_src("INPUT(a)\nq = DFF(d)\nd = XOR(a, q)\nOUTPUT(q)\n");
        assert!(!rules_of(&mut r).contains(&"comb-cycle"));
    }

    #[test]
    fn shadowed_input_and_redefinition_distinguished() {
        let mut r =
            lint_src("INPUT(a)\nINPUT(b)\na = AND(a, b)\ny = NOT(a)\ny = BUFF(b)\nOUTPUT(y)\n");
        let rules = rules_of(&mut r);
        assert!(rules.contains(&"pi-shadowed"), "{rules:?}");
        assert!(rules.contains(&"redefined-net"), "{rules:?}");
    }

    #[test]
    fn dangling_and_unobservable_split() {
        // u feeds v; neither reaches the output.
        let mut r = lint_src("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nu = NOT(a)\nv = NOT(u)\n");
        let rules = rules_of(&mut r);
        // v dangles (no fanout); u is unobservable (fans out into v only).
        assert!(rules.contains(&"dangling-gate"), "{rules:?}");
        assert!(rules.contains(&"unobservable-gate"), "{rules:?}");
    }

    #[test]
    fn dff_d_driver_is_observable() {
        let mut r = lint_src("INPUT(a)\nq = DFF(d)\nd = NOT(a)\nOUTPUT(q)\n");
        let rules = rules_of(&mut r);
        assert!(!rules.contains(&"dangling-gate"), "{rules:?}");
        assert!(!rules.contains(&"unobservable-gate"), "{rules:?}");
    }

    #[test]
    fn complementary_pair_is_constant() {
        let mut r = lint_src("INPUT(a)\nOUTPUT(y)\nnb = NOT(a)\nc = AND(a, nb)\ny = OR(c, a)\n");
        let mut found = false;
        for d in r.diagnostics() {
            if d.rule_id == "const-gate" {
                assert!(d.message.contains("`c`"), "{}", d.message);
                assert!(d.message.contains("constant 0"), "{}", d.message);
                found = true;
            }
        }
        assert!(found, "expected const-gate for c");
    }

    #[test]
    fn xor_of_same_net_is_constant_zero() {
        let mut r = lint_src("INPUT(a)\nOUTPUT(y)\nb = BUFF(a)\nz = XOR(a, b)\ny = OR(z, a)\n");
        assert!(rules_of(&mut r).contains(&"const-gate"));
    }

    #[test]
    fn constants_propagate_through_fixpoint() {
        // c = a AND !a = 0; d = OR(c, c) = 0; e = NOR(d, d) = 1.
        let mut r = lint_src(
            "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\nc = AND(a, na)\nd = OR(c, c)\ne = NOR(d, d)\ny = AND(e, a)\n",
        );
        let consts: Vec<&str> = r
            .diagnostics()
            .iter()
            .filter(|d| d.rule_id == "const-gate")
            .map(|d| d.location.as_str())
            .collect();
        assert_eq!(consts.len(), 3, "{consts:?}");
    }

    #[test]
    fn s27_is_structurally_clean() {
        let net = fbt_netlist::s27();
        let c = RawCircuit::from_netlist(&net);
        let mut r = LintReport::new("s27");
        run(&c, &mut r);
        assert!(!r.any_at_least(Severity::Warning), "{:?}", r.diagnostics());
    }

    #[test]
    fn x_source_flags_uninitializable_ff() {
        // q feeds itself through an XOR with a PI: never initializes from X.
        let mut b = fbt_netlist::NetlistBuilder::new("xs");
        b.input("a").unwrap();
        b.dff("q", "d").unwrap();
        b.gate(GateKind::Xor, "d", &["a", "q"]).unwrap();
        b.output("q").unwrap();
        let net = b.finish().unwrap();
        let mut r = LintReport::new("xs");
        x_source_ffs(&net, &mut r);
        assert_eq!(r.diagnostics().len(), 1);
        assert_eq!(r.diagnostics()[0].rule_id, "x-source-ff");
    }

    #[test]
    fn fanout_outlier_on_star_topology() {
        let mut src = String::from("INPUT(a)\nINPUT(b)\nh = AND(a, b)\n");
        for i in 0..20 {
            src.push_str(&format!("g{i} = NOT(h)\nOUTPUT(g{i})\n"));
        }
        let mut r = lint_src(&src);
        assert!(rules_of(&mut r).contains(&"fanout-outlier"));
    }

    #[test]
    fn per_rule_cap_adds_suppression_note() {
        let mut src = String::from("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\nna = NOT(a)\n");
        for i in 0..30 {
            src.push_str(&format!("k{i} = AND(a, na)\nOUTPUT(k{i})\n"));
        }
        let mut r = lint_src(&src);
        let consts = r
            .diagnostics()
            .iter()
            .filter(|d| d.rule_id == "const-gate")
            .count();
        assert_eq!(consts, 26); // 25 findings + 1 suppression note
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.message.contains("suppressed")));
    }
}
