//! A tolerant circuit graph for static analysis.
//!
//! [`fbt_netlist::Netlist`] refuses to exist in a broken state: duplicate
//! definitions, undriven nets and combinational cycles are construction
//! errors. A linter must instead see *all* of a document's problems at once,
//! so [`RawCircuit`] builds a best-effort graph from the syntax-level
//! [`RawDoc`] statement stream — keeping the first definition of each
//! name, recording every later redefinition, and representing
//! referenced-but-never-defined nets as kind-less nodes.

use std::collections::HashMap;

use fbt_netlist::frontend::{RawDoc, RawStmt};
use fbt_netlist::{GateKind, Netlist};

/// One signal in a [`RawCircuit`].
#[derive(Debug, Clone)]
pub struct RawNode {
    /// The signal name.
    pub name: String,
    /// The defining kind, or `None` when the signal is referenced but
    /// never defined (an undriven net).
    pub kind: Option<GateKind>,
    /// Fanin node indices, in source order.
    pub fanins: Vec<usize>,
    /// 1-based source line of the first definition, when parsed from text.
    pub line: Option<usize>,
}

/// A later definition of an already-defined name.
#[derive(Debug, Clone)]
pub struct Redefinition {
    /// Index of the node carrying the first (kept) definition.
    pub node: usize,
    /// 1-based source line of the redefinition, when parsed from text.
    pub line: Option<usize>,
    /// Whether the collision pairs a primary input with a gate or
    /// flip-flop output (silent shadowing) rather than two same-class
    /// definitions.
    pub shadows_input: bool,
}

/// A best-effort circuit graph that tolerates structural defects.
#[derive(Debug, Clone)]
pub struct RawCircuit {
    /// Circuit name.
    pub name: String,
    /// All signals, in first-mention order.
    pub nodes: Vec<RawNode>,
    /// Fanout adjacency, parallel to `nodes`.
    pub fanouts: Vec<Vec<usize>>,
    /// Primary-output references (node indices; duplicates preserved).
    pub outputs: Vec<usize>,
    /// Redefinitions dropped while keeping the first definition of each name.
    pub redefinitions: Vec<Redefinition>,
    name_to_idx: HashMap<String, usize>,
}

impl RawCircuit {
    /// Build from a syntax-level parse of either wire format.
    pub fn from_raw_bench(raw: &RawDoc) -> Self {
        let mut c = RawCircuit {
            name: raw.name.clone(),
            nodes: Vec::new(),
            fanouts: Vec::new(),
            outputs: Vec::new(),
            redefinitions: Vec::new(),
            name_to_idx: HashMap::new(),
        };
        for (line, stmt) in &raw.stmts {
            match stmt {
                RawStmt::Input(n) => c.define(n, GateKind::Input, &[], Some(*line)),
                RawStmt::Output(n) => {
                    let idx = c.intern(n);
                    c.outputs.push(idx);
                }
                RawStmt::Def { name, kind, args } => {
                    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
                    c.define(name, *kind, &arg_refs, Some(*line));
                }
            }
        }
        c.compute_fanouts();
        c
    }

    /// Build from an already-valid [`Netlist`] (no lines, no defects of the
    /// kinds the builder rejects — the structural rules still apply).
    pub fn from_netlist(net: &Netlist) -> Self {
        let mut c = RawCircuit {
            name: net.name().to_string(),
            nodes: Vec::with_capacity(net.num_nodes()),
            fanouts: Vec::new(),
            outputs: Vec::new(),
            redefinitions: Vec::new(),
            name_to_idx: HashMap::new(),
        };
        for id in net.node_ids() {
            let node = net.node(id);
            c.name_to_idx
                .insert(net.node_name(id).to_string(), id.index());
            c.nodes.push(RawNode {
                name: net.node_name(id).to_string(),
                kind: Some(node.kind()),
                fanins: node.fanins().iter().map(|f| f.index()).collect(),
                line: None,
            });
        }
        c.outputs = net.outputs().iter().map(|o| o.index()).collect();
        c.compute_fanouts();
        c
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&i) = self.name_to_idx.get(name) {
            return i;
        }
        let i = self.nodes.len();
        self.name_to_idx.insert(name.to_string(), i);
        self.nodes.push(RawNode {
            name: name.to_string(),
            kind: None,
            fanins: Vec::new(),
            line: None,
        });
        i
    }

    fn define(&mut self, name: &str, kind: GateKind, fanins: &[&str], line: Option<usize>) {
        let idx = self.intern(name);
        if let Some(prev_kind) = self.nodes[idx].kind {
            // Keep the first definition; record the collision.
            let shadows = (prev_kind == GateKind::Input) != (kind == GateKind::Input);
            self.redefinitions.push(Redefinition {
                node: idx,
                line,
                shadows_input: shadows,
            });
            return;
        }
        let fanin_idx: Vec<usize> = fanins.iter().map(|f| self.intern(f)).collect();
        let node = &mut self.nodes[idx];
        node.kind = Some(kind);
        node.fanins = fanin_idx;
        node.line = line;
    }

    fn compute_fanouts(&mut self) {
        self.fanouts = vec![Vec::new(); self.nodes.len()];
        for i in 0..self.nodes.len() {
            for k in 0..self.nodes[i].fanins.len() {
                let f = self.nodes[i].fanins[k];
                self.fanouts[f].push(i);
            }
        }
    }

    /// Node index by name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.name_to_idx.get(name).copied()
    }

    /// Whether the node is a source (primary input, flip-flop, or an
    /// undefined net — which the analyses must treat as an unknown source).
    pub fn is_source(&self, i: usize) -> bool {
        match self.nodes[i].kind {
            None => true,
            Some(k) => k.is_source(),
        }
    }

    /// Whether the node is a combinational gate with a known kind.
    pub fn is_gate(&self, i: usize) -> bool {
        matches!(self.nodes[i].kind, Some(k) if !k.is_source())
    }

    /// The location string for diagnostics: `circuit:line N` when the node
    /// has a source line, else `circuit:name`.
    pub fn location(&self, i: usize) -> String {
        match self.nodes[i].line {
            Some(l) => format!("{}:line {}", self.name, l),
            None => format!("{}:{}", self.name, self.nodes[i].name),
        }
    }

    /// Indices of every observable point: primary-output drivers and
    /// flip-flop D-drivers (observed at scan-out).
    pub fn observable_points(&self) -> Vec<usize> {
        let mut obs: Vec<usize> = self.outputs.clone();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.kind == Some(GateKind::Dff) {
                obs.extend(self.nodes[i].fanins.iter().copied());
            }
        }
        obs.sort_unstable();
        obs.dedup();
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::bench::parse_raw;

    #[test]
    fn tolerates_undefined_and_duplicates() {
        let src = "INPUT(a)\ny = NOT(ghost)\ny = BUFF(a)\na = AND(a, y)\nOUTPUT(y)\n";
        let raw = parse_raw(src, "rough").unwrap();
        let c = RawCircuit::from_raw_bench(&raw);
        let ghost = c.find("ghost").unwrap();
        assert_eq!(c.nodes[ghost].kind, None);
        assert!(c.is_source(ghost));
        assert_eq!(c.redefinitions.len(), 2);
        assert!(!c.redefinitions[0].shadows_input); // y = NOT / y = BUFF
        assert!(c.redefinitions[1].shadows_input); // a: input vs AND
                                                   // First definition wins: y stays NOT(ghost).
        let y = c.find("y").unwrap();
        assert_eq!(c.nodes[y].kind, Some(GateKind::Not));
        assert_eq!(c.nodes[y].fanins, vec![ghost]);
    }

    #[test]
    fn from_netlist_matches_structure() {
        let net = fbt_netlist::s27();
        let c = RawCircuit::from_netlist(&net);
        assert_eq!(c.nodes.len(), net.num_nodes());
        assert!(c.redefinitions.is_empty());
        let obs = c.observable_points();
        // s27: one PO driver (G17) + three DFF D-drivers (G10, G11, G13),
        // all distinct.
        assert_eq!(obs.len(), 4);
    }

    #[test]
    fn locations_prefer_lines() {
        let raw = parse_raw("INPUT(a)\ny = NOT(a)\n", "c").unwrap();
        let c = RawCircuit::from_raw_bench(&raw);
        assert_eq!(c.location(c.find("y").unwrap()), "c:line 2");
        let net = fbt_netlist::s27();
        let cn = RawCircuit::from_netlist(&net);
        assert_eq!(cn.location(cn.find("G10").unwrap()), "s27:G10");
    }
}
