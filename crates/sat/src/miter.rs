//! Single-frame XOR-miter equivalence checking between two netlists.
//!
//! Sequential equivalence for the lint fix engine reduces to combinational
//! equivalence of the *frame functions*: two netlists with the same primary
//! inputs and the same flip-flops are equivalent iff, for every input vector
//! and every present state, all primary outputs **and all next-state (DFF D)
//! lines** agree. The miter shares one CNF variable per source (primary
//! input or present-state bit, matched by name), encodes both circuits'
//! combinational logic over those shared sources, XORs each corresponding
//! PO pair (positionally) and each next-state pair (by flip-flop name), and
//! asserts the OR of the XORs:
//!
//! * **UNSAT** — no assignment distinguishes the circuits: equivalent, for
//!   every state, reachable or not.
//! * **SAT** — the model is a concrete witness (input vector + present
//!   state) on which the circuits disagree.
//!
//! The right-hand netlist may carry *extra* primary inputs (the fix engine's
//! undriven-net stubs); they become free variables, so equivalence must hold
//! for every value they take. Flip-flop sets must match exactly — the fix
//! engine never adds or removes state.

use fbt_netlist::{GateKind, Netlist};

use crate::cnf::CnfFormula;
use crate::lit::{Lit, Var};
use crate::solver::{SatResult, Solver};

/// Why two netlists cannot be mitered at all (interface mismatch — distinct
/// from *inequivalence*, which the solver decides).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MiterError {
    /// The primary-output counts differ.
    OutputCount {
        /// Output count of the left (original) netlist.
        left: usize,
        /// Output count of the right (rewritten) netlist.
        right: usize,
    },
    /// The flip-flop name sets differ, or a name changes role between
    /// source kinds (the named signal is the offender).
    SourceMismatch(String),
}

impl std::fmt::Display for MiterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiterError::OutputCount { left, right } => {
                write!(f, "output counts differ: {left} vs {right}")
            }
            MiterError::SourceMismatch(n) => {
                write!(f, "source `{n}` does not match between the two netlists")
            }
        }
    }
}

impl std::error::Error for MiterError {}

/// A distinguishing assignment: one value per shared source, in a fixed
/// order (left netlist's primary inputs, then right-only inputs, then
/// flip-flops in the left netlist's scan order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiterWitness {
    /// `(source name, value)` pairs.
    pub assignment: Vec<(String, bool)>,
}

impl MiterWitness {
    /// Render the witness as a compact `name=0/1` list (diagnostic text).
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .assignment
            .iter()
            .map(|(n, v)| format!("{n}={}", u8::from(*v)))
            .collect();
        parts.join(" ")
    }
}

/// The verdict of a miter solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterOutcome {
    /// UNSAT: the circuits agree on every PO and next-state line for every
    /// input and state assignment.
    Equivalent,
    /// SAT: the witness distinguishes the circuits.
    NotEquivalent(MiterWitness),
}

impl MiterOutcome {
    /// Whether the verdict is [`MiterOutcome::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, MiterOutcome::Equivalent)
    }
}

/// A built miter, ready to solve (possibly more than once).
#[derive(Debug, Clone)]
pub struct Miter {
    cnf: CnfFormula,
    sources: Vec<(String, Var)>,
}

impl Miter {
    /// Build the XOR miter between `left` (the original) and `right` (the
    /// candidate rewrite). See the [module docs](self) for the encoding and
    /// the interface rules.
    ///
    /// # Errors
    ///
    /// [`MiterError`] when the interfaces cannot be lined up; never for mere
    /// inequivalence.
    pub fn build(left: &Netlist, right: &Netlist) -> Result<Self, MiterError> {
        if left.num_outputs() != right.num_outputs() {
            return Err(MiterError::OutputCount {
                left: left.num_outputs(),
                right: right.num_outputs(),
            });
        }
        // Flip-flop sets must match by name (order may differ).
        for &d in left.dffs() {
            let name = left.node_name(d);
            match right.find(name) {
                Some(id) if right.node(id).kind() == GateKind::Dff => {}
                _ => return Err(MiterError::SourceMismatch(name.to_string())),
            }
        }
        for &d in right.dffs() {
            let name = right.node_name(d);
            match left.find(name) {
                Some(id) if left.node(id).kind() == GateKind::Dff => {}
                _ => return Err(MiterError::SourceMismatch(name.to_string())),
            }
        }

        let mut cnf = CnfFormula::new();
        let mut sources: Vec<(String, Var)> = Vec::new();
        let source_var =
            |cnf: &mut CnfFormula, sources: &mut Vec<(String, Var)>, name: &str| -> Var {
                if let Some((_, v)) = sources.iter().find(|(n, _)| n == name) {
                    return *v;
                }
                let v = cnf.new_var();
                sources.push((name.to_string(), v));
                v
            };
        // Fixed source order: left PIs, right-only PIs, left FFs.
        for &i in left.inputs() {
            source_var(&mut cnf, &mut sources, left.node_name(i));
        }
        for &i in right.inputs() {
            let name = right.node_name(i);
            // A left gate name reappearing as a right input would silently
            // alias unrelated logic.
            if let Some(id) = left.find(name) {
                if left.node(id).kind() != GateKind::Input {
                    return Err(MiterError::SourceMismatch(name.to_string()));
                }
            }
            source_var(&mut cnf, &mut sources, name);
        }
        for &d in left.dffs() {
            source_var(&mut cnf, &mut sources, left.node_name(d));
        }

        // Encode one netlist's combinational logic over the shared sources;
        // returns the node → literal map.
        let encode =
            |cnf: &mut CnfFormula, sources: &mut Vec<(String, Var)>, net: &Netlist| -> Vec<Lit> {
                let mut lit_of: Vec<Lit> = vec![Lit(0); net.num_nodes()];
                for id in net.node_ids() {
                    if net.node(id).kind().is_source() {
                        lit_of[id.index()] = source_var(cnf, sources, net.node_name(id)).pos();
                    }
                }
                for &g in net.eval_order() {
                    let out = cnf.new_var().pos();
                    let ins: Vec<Lit> = net
                        .node(g)
                        .fanins()
                        .iter()
                        .map(|&f| lit_of[f.index()])
                        .collect();
                    cnf.gate(net.node(g).kind(), out, &ins);
                    lit_of[g.index()] = out;
                }
                lit_of
            };
        let left_lits = encode(&mut cnf, &mut sources, left);
        let right_lits = encode(&mut cnf, &mut sources, right);

        // XOR each observation pair; OR of the XORs must be satisfiable for
        // the circuits to differ.
        let mut diffs: Vec<Lit> = Vec::new();
        for (&lo, &ro) in left.outputs().iter().zip(right.outputs()) {
            let d = cnf.new_var().pos();
            cnf.xor2_gate(d, left_lits[lo.index()], right_lits[ro.index()]);
            diffs.push(d);
        }
        for &ld in left.dffs() {
            let name = left.node_name(ld);
            let rd = right.find(name).expect("checked above");
            let l_next = left_lits[left.node(ld).fanins()[0].index()];
            let r_next = right_lits[right.node(rd).fanins()[0].index()];
            let d = cnf.new_var().pos();
            cnf.xor2_gate(d, l_next, r_next);
            diffs.push(d);
        }
        let any = cnf.new_var().pos();
        cnf.or_gate(any, &diffs);
        cnf.add_clause(&[any]);

        Ok(Miter { cnf, sources })
    }

    /// Solve the miter. The solver is deterministic, so the verdict and a
    /// SAT witness are byte-identical across runs.
    pub fn solve(&self) -> MiterOutcome {
        match Solver::from_cnf(&self.cnf).solve() {
            SatResult::Unsat => MiterOutcome::Equivalent,
            SatResult::Sat(model) => {
                let assignment = self
                    .sources
                    .iter()
                    .map(|(n, v)| (n.clone(), model.value(*v)))
                    .collect();
                MiterOutcome::NotEquivalent(MiterWitness { assignment })
            }
            SatResult::Unknown => unreachable!("an unlimited solve always concludes"),
        }
    }
}

/// Convenience: build and solve in one call.
///
/// # Errors
///
/// Propagates [`MiterError`] from [`Miter::build`].
pub fn check_equivalence(left: &Netlist, right: &Netlist) -> Result<MiterOutcome, MiterError> {
    Ok(Miter::build(left, right)?.solve())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::{bench, s27};

    fn parse(text: &str, name: &str) -> Netlist {
        bench::parse(text, name).expect("test netlist parses")
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let n = s27();
        assert_eq!(check_equivalence(&n, &n).unwrap(), MiterOutcome::Equivalent);
    }

    #[test]
    fn demorgan_rewrite_is_equivalent() {
        let a = parse("INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = NAND(x, y)\n", "a");
        let b = parse(
            "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nnx = NOT(x)\nny = NOT(y)\nz = OR(nx, ny)\n",
            "b",
        );
        assert_eq!(check_equivalence(&a, &b).unwrap(), MiterOutcome::Equivalent);
    }

    #[test]
    fn wrong_rewrite_yields_witness() {
        let a = parse("INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = AND(x, y)\n", "a");
        let b = parse("INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = OR(x, y)\n", "b");
        let MiterOutcome::NotEquivalent(w) = check_equivalence(&a, &b).unwrap() else {
            panic!("AND vs OR must differ");
        };
        // The witness must actually distinguish AND from OR: exactly one
        // input true.
        let x = w.assignment.iter().find(|(n, _)| n == "x").unwrap().1;
        let y = w.assignment.iter().find(|(n, _)| n == "y").unwrap().1;
        assert_ne!(x, y, "witness {:?}", w.render());
    }

    #[test]
    fn next_state_lines_are_compared() {
        // Same (absent) POs, same FF, different D logic: must differ.
        let a = parse("INPUT(x)\nq = DFF(d)\nd = BUFF(x)\nOUTPUT(q)\n", "a");
        let b = parse("INPUT(x)\nq = DFF(d)\nd = NOT(x)\nOUTPUT(q)\n", "b");
        assert!(matches!(
            check_equivalence(&a, &b).unwrap(),
            MiterOutcome::NotEquivalent(_)
        ));
    }

    #[test]
    fn extra_right_inputs_are_free_variables() {
        // The stub input must not affect the output for equivalence...
        let a = parse("INPUT(x)\nOUTPUT(z)\nz = BUFF(x)\n", "a");
        let b = parse("INPUT(x)\nINPUT(stub)\nOUTPUT(z)\nz = BUFF(x)\n", "b");
        assert_eq!(check_equivalence(&a, &b).unwrap(), MiterOutcome::Equivalent);
        // ...and when it does, the circuits are not equivalent.
        let c = parse("INPUT(x)\nINPUT(stub)\nOUTPUT(z)\nz = AND(x, stub)\n", "c");
        assert!(matches!(
            check_equivalence(&a, &c).unwrap(),
            MiterOutcome::NotEquivalent(_)
        ));
    }

    #[test]
    fn interface_mismatches_are_errors_not_verdicts() {
        let a = parse("INPUT(x)\nOUTPUT(z)\nz = BUFF(x)\n", "a");
        let b = parse("INPUT(x)\nOUTPUT(z)\nOUTPUT(x)\nz = BUFF(x)\n", "b");
        assert_eq!(
            Miter::build(&a, &b).unwrap_err(),
            MiterError::OutputCount { left: 1, right: 2 }
        );
        let c = parse("INPUT(x)\nq = DFF(x)\nOUTPUT(q)\n", "c");
        let d = parse("INPUT(x)\nr = DFF(x)\nOUTPUT(r)\n", "d");
        assert!(matches!(
            Miter::build(&c, &d).unwrap_err(),
            MiterError::SourceMismatch(_)
        ));
    }
}
