//! CNF formulas and Tseitin gate encodings.
//!
//! [`CnfFormula`] accumulates clauses over fresh variables and knows how to
//! encode every [`GateKind`] of the netlist crate as CNF constraints
//! (`out ↔ KIND(ins)`). Multi-input XOR/XNOR gates are chained through
//! auxiliary variables, so clause width stays bounded.
//! [`CnfFormula::encode_gates`] is the one place a netlist's gates become
//! clauses: time frames, miters, faulty cone copies and duplicate-cone
//! proofs all go through it.

use fbt_netlist::{GateKind, Netlist, NodeId};

use crate::lit::{Lit, Var};

/// A CNF formula under construction: a variable counter plus a clause list.
///
/// # Example
///
/// ```
/// use fbt_sat::{CnfFormula, Solver, SatResult};
///
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_var().pos();
/// let b = cnf.new_var().pos();
/// cnf.add_clause(&[a, b]);
/// cnf.add_clause(&[!a]);
/// let mut solver = Solver::from_cnf(&cnf);
/// let SatResult::Sat(model) = solver.solve() else { panic!() };
/// assert!(model.lit(b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CnfFormula {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    /// Lazily created variable forced true, for encoding constants.
    true_var: Option<Var>,
}

impl CnfFormula {
    /// An empty formula.
    pub fn new() -> Self {
        CnfFormula::default()
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses added so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Add a clause (a disjunction of literals).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }

    /// A literal that is constant `true` (or `false`): backed by a single
    /// lazily allocated variable pinned by a unit clause.
    pub fn constant(&mut self, value: bool) -> Lit {
        let v = match self.true_var {
            Some(v) => v,
            None => {
                let v = self.new_var();
                self.clauses.push(vec![v.pos()]);
                self.true_var = Some(v);
                v
            }
        };
        v.lit(value)
    }

    /// Constrain `a ↔ b`.
    pub fn equal(&mut self, a: Lit, b: Lit) {
        self.add_clause(&[!a, b]);
        self.add_clause(&[a, !b]);
    }

    /// Constrain `out ↔ AND(ins)` (an empty `ins` makes `out` true).
    pub fn and_gate(&mut self, out: Lit, ins: &[Lit]) {
        let mut long: Vec<Lit> = Vec::with_capacity(ins.len() + 1);
        long.push(out);
        for &i in ins {
            self.add_clause(&[!out, i]);
            long.push(!i);
        }
        self.add_clause(&long);
    }

    /// Constrain `out ↔ OR(ins)` (an empty `ins` makes `out` false).
    pub fn or_gate(&mut self, out: Lit, ins: &[Lit]) {
        let mut long: Vec<Lit> = Vec::with_capacity(ins.len() + 1);
        long.push(!out);
        for &i in ins {
            self.add_clause(&[out, !i]);
            long.push(i);
        }
        self.add_clause(&long);
    }

    /// Constrain `out ↔ a XOR b`.
    pub fn xor2_gate(&mut self, out: Lit, a: Lit, b: Lit) {
        self.add_clause(&[!out, a, b]);
        self.add_clause(&[!out, !a, !b]);
        self.add_clause(&[out, !a, b]);
        self.add_clause(&[out, a, !b]);
    }

    /// Constrain `out ↔ XOR(ins)`, chaining auxiliary variables for more
    /// than two inputs.
    ///
    /// # Panics
    ///
    /// Panics on an empty input list (a zero-input XOR has no netlist
    /// counterpart).
    pub fn xor_gate(&mut self, out: Lit, ins: &[Lit]) {
        match ins {
            [] => panic!("XOR gate needs at least one input"),
            [a] => self.equal(out, *a),
            [a, b] => self.xor2_gate(out, *a, *b),
            [a, rest @ ..] => {
                let mut acc = *a;
                for (k, &i) in rest.iter().enumerate() {
                    let next = if k + 1 == rest.len() {
                        out
                    } else {
                        self.new_var().pos()
                    };
                    self.xor2_gate(next, acc, i);
                    acc = next;
                }
            }
        }
    }

    /// Constrain `out ↔ KIND(ins)` for any combinational [`GateKind`].
    ///
    /// # Panics
    ///
    /// Panics on source kinds (`Input`, `Dff`) — they have no combinational
    /// function — and on arity violations for single-input kinds.
    pub fn gate(&mut self, kind: GateKind, out: Lit, ins: &[Lit]) {
        match kind {
            GateKind::Input | GateKind::Dff => {
                panic!("source nodes have no combinational CNF encoding")
            }
            GateKind::And => self.and_gate(out, ins),
            GateKind::Nand => self.and_gate(!out, ins),
            GateKind::Or => self.or_gate(out, ins),
            GateKind::Nor => self.or_gate(!out, ins),
            GateKind::Xor => self.xor_gate(out, ins),
            GateKind::Xnor => self.xor_gate(!out, ins),
            GateKind::Not => {
                assert_eq!(ins.len(), 1, "NOT takes one input");
                self.equal(out, !ins[0]);
            }
            GateKind::Buf => {
                assert_eq!(ins.len(), 1, "BUFF takes one input");
                self.equal(out, ins[0]);
            }
        }
    }

    /// Encode `gates` of `net`, a topologically ordered list of
    /// combinational nodes. Each gate reads its fanin literals from `lits`
    /// (indexed by node; the caller fills the slots of sources and of any
    /// node it wants to pin, such as a fault site) and gets one fresh output
    /// variable, allocated in list order and written back into `lits`.
    /// Slots that no listed gate reads are never touched.
    ///
    /// # Panics
    ///
    /// Panics if a listed node is a source (see [`CnfFormula::gate`]).
    pub fn encode_gates(&mut self, net: &Netlist, gates: &[NodeId], lits: &mut [Lit]) {
        let mut ins: Vec<Lit> = Vec::new();
        for &g in gates {
            let node = net.node(g);
            ins.clear();
            ins.extend(node.fanins().iter().map(|f| lits[f.index()]));
            let out = self.new_var().pos();
            self.gate(node.kind(), out, &ins);
            lits[g.index()] = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SatResult, Solver};

    /// Exhaustively check that `gate(kind)` encodes exactly the gate's truth
    /// table: for every input combination, the output is forced to the
    /// evaluated value and the opposite value is contradictory.
    #[test]
    fn gate_encodings_match_truth_tables() {
        for kind in GateKind::COMBINATIONAL {
            let arity = if kind.is_unate_single() { 1 } else { 3 };
            for combo in 0..(1u32 << arity) {
                let ins_b: Vec<bool> = (0..arity).map(|k| (combo >> k) & 1 == 1).collect();
                let expect = kind.eval(&ins_b);
                for claim in [false, true] {
                    let mut cnf = CnfFormula::new();
                    let out = cnf.new_var();
                    let ins: Vec<Var> = (0..arity).map(|_| cnf.new_var()).collect();
                    let in_lits: Vec<Lit> = ins.iter().map(|v| v.pos()).collect();
                    cnf.gate(kind, out.pos(), &in_lits);
                    for (v, &b) in ins.iter().zip(&ins_b) {
                        cnf.add_clause(&[v.lit(b)]);
                    }
                    cnf.add_clause(&[out.lit(claim)]);
                    let sat = matches!(Solver::from_cnf(&cnf).solve(), SatResult::Sat(_));
                    assert_eq!(
                        sat,
                        claim == expect,
                        "{kind} inputs {ins_b:?} claim {claim}"
                    );
                }
            }
        }
    }

    #[test]
    fn xor_chain_width_five() {
        // 5-input XOR via chained auxiliaries: odd parity only.
        for combo in 0..32u32 {
            let ins_b: Vec<bool> = (0..5).map(|k| (combo >> k) & 1 == 1).collect();
            let parity = ins_b.iter().filter(|&&b| b).count() % 2 == 1;
            let mut cnf = CnfFormula::new();
            let out = cnf.new_var();
            let ins: Vec<Var> = (0..5).map(|_| cnf.new_var()).collect();
            let in_lits: Vec<Lit> = ins.iter().map(|v| v.pos()).collect();
            cnf.xor_gate(out.pos(), &in_lits);
            for (v, &b) in ins.iter().zip(&ins_b) {
                cnf.add_clause(&[v.lit(b)]);
            }
            let SatResult::Sat(model) = Solver::from_cnf(&cnf).solve() else {
                panic!("fixing all inputs must be satisfiable");
            };
            assert_eq!(model.lit(out.pos()), parity, "inputs {ins_b:?}");
        }
    }

    #[test]
    fn constants_are_pinned_and_shared() {
        let mut cnf = CnfFormula::new();
        let t = cnf.constant(true);
        let f = cnf.constant(false);
        assert_eq!(t.var(), f.var(), "both polarities share one variable");
        let SatResult::Sat(model) = Solver::from_cnf(&cnf).solve() else {
            panic!("a pinned constant is satisfiable");
        };
        assert!(model.lit(t));
        assert!(!model.lit(f));
    }

    #[test]
    fn empty_and_or_are_constants() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_var();
        let o = cnf.new_var();
        cnf.and_gate(a.pos(), &[]);
        cnf.or_gate(o.pos(), &[]);
        let SatResult::Sat(model) = Solver::from_cnf(&cnf).solve() else {
            panic!("constant gates are satisfiable");
        };
        assert!(model.value(a));
        assert!(!model.value(o));
    }
}
