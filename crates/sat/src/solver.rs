//! A from-scratch CDCL SAT solver.
//!
//! MiniSat-lineage architecture, written for this workspace with two hard
//! requirements:
//!
//! 1. **Completeness** — two-watched-literal propagation, first-UIP conflict
//!    clause learning with non-chronological backjumping, VSIDS-style
//!    variable activities and Luby restarts make the solver a decision
//!    procedure, not a heuristic: `Sat` models are checkable and `Unsat`
//!    verdicts are proofs of untestability / unreachability for the encoded
//!    bound.
//! 2. **Determinism** — identical input produces identical search traces.
//!    Every data structure is index-ordered (no hashing), activity
//!    tie-breaks prefer the lower variable index, phase saving starts from a
//!    fixed polarity, and no wall-clock or randomized decision exists
//!    anywhere. Repeated runs report identical
//!    [`SolverStats`] — asserted by the differential suite.
//!
//! Learnt clauses are kept for the lifetime of the solver: the workspace's
//! formulas (two-frame fault encodings, k-frame reachability encodings of
//! benchmark-scale circuits) stay far below the sizes where clause-database
//! reduction pays off, and never deleting keeps the solver simpler to audit.

use std::fmt;

use crate::cnf::CnfFormula;
use crate::lit::{Lit, Var};

/// Search statistics, identical across repeated runs on the same input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated (trail entries processed).
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
}

impl SolverStats {
    /// Accumulate another run's counters (used by multi-query consumers).
    pub fn absorb(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learned += other.learned;
    }

    /// Render as a JSON object (no external dependencies in this workspace).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"decisions\":{},\"conflicts\":{},\"propagations\":{},\
             \"restarts\":{},\"learned\":{}}}",
            self.decisions, self.conflicts, self.propagations, self.restarts, self.learned
        )
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} decisions, {} conflicts, {} propagations, {} restarts, {} learned",
            self.decisions, self.conflicts, self.propagations, self.restarts, self.learned
        )
    }
}

/// A satisfying assignment, total over the solver's variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model(Vec<bool>);

impl Model {
    /// The value assigned to a variable.
    #[inline]
    pub fn value(&self, v: Var) -> bool {
        self.0[v.index()]
    }

    /// The truth value of a literal under the model.
    #[inline]
    pub fn lit(&self, l: Lit) -> bool {
        l.eval(self.0[l.var().index()])
    }

    /// Number of variables in the model.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the model covers no variables.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The verdict of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a total model.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// The conflict budget of [`Solver::solve_limited`] was exhausted.
    Unknown,
}

impl SatResult {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the verdict is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

const UNDEF: u8 = 2;
const NO_REASON: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use fbt_sat::{SatResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.pos(), b.pos()]);
/// s.add_clause(&[!a.pos()]);
/// let SatResult::Sat(model) = s.solve() else { panic!() };
/// assert!(!model.value(a));
/// assert!(model.value(b));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Watch lists: for each literal code, the clauses currently watching
    /// that literal (the literal sits at position 0 or 1 of the clause).
    watches: Vec<Vec<u32>>,
    assigns: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// VSIDS activity per variable, decayed geometrically via `var_inc`.
    activity: Vec<f64>,
    var_inc: f64,
    /// Saved phase per variable; initial polarity is `false` so that first
    /// models are minimal-ish and — more importantly — deterministic.
    polarity: Vec<bool>,
    /// Binary max-heap over unassigned variables, ordered by activity with
    /// the lower index winning ties.
    heap: Vec<Var>,
    heap_pos: Vec<usize>,
    ok: bool,
    /// Statistics of all `solve*` calls so far.
    pub stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            polarity: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
        }
    }

    /// Build a solver holding all of a formula's variables and clauses.
    pub fn from_cnf(cnf: &CnfFormula) -> Self {
        let mut s = Solver::new();
        for _ in 0..cnf.num_vars() {
            s.new_var();
        }
        for c in cnf.clauses() {
            s.add_clause(c);
        }
        s
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(UNDEF);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(usize::MAX);
        self.heap_insert(v);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Add a clause. Must be called before (or between) `solve*` calls —
    /// the solver is at decision level 0 then, which this relies on.
    ///
    /// Duplicate literals are merged, tautologies dropped, and literals
    /// already false at level 0 removed. Returns `false` if the clause made
    /// the formula trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.trail_lim.len(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut filtered: Vec<Lit> = Vec::with_capacity(c.len());
        for (k, &l) in c.iter().enumerate() {
            assert!(l.var().index() < self.num_vars(), "literal out of range");
            if k + 1 < c.len() && c[k + 1] == !l {
                return true; // tautology: contains l and ¬l
            }
            match self.lit_value(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => {}          // drop the false literal
                None => filtered.push(l),
            }
        }
        match filtered.as_slice() {
            [] => {
                self.ok = false;
                false
            }
            [unit] => {
                self.enqueue(*unit, NO_REASON);
                // Propagate eagerly so later add_clause calls see the
                // strongest level-0 assignment.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.clauses.len() as u32;
                self.watches[filtered[0].code()].push(cref);
                self.watches[filtered[1].code()].push(cref);
                self.clauses.push(Clause { lits: filtered });
                true
            }
        }
    }

    /// Solve with no conflict budget: always returns `Sat` or `Unsat`.
    pub fn solve(&mut self) -> SatResult {
        self.solve_limited(u64::MAX)
    }

    /// Solve with a conflict budget; returns `Unknown` when it runs out (a
    /// budget of 0 stops at the first conflict, like a budget of 1). The
    /// solver is back at decision level 0 either way, so clauses can be
    /// added and the search resumed.
    pub fn solve_limited(&mut self, max_conflicts: u64) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        let mut conflicts_left = max_conflicts;
        let mut restart_idx: u64 = 1;
        let mut restart_budget = luby(restart_idx) * 64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, back_level) = self.analyze(confl);
                self.cancel_until(back_level);
                self.learn(learnt);
                self.decay_activity();
                conflicts_left = conflicts_left.saturating_sub(1);
                if conflicts_left == 0 {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
                restart_budget = restart_budget.saturating_sub(1);
                if restart_budget == 0 {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    restart_budget = luby(restart_idx) * 64;
                    self.cancel_until(0);
                }
            } else {
                match self.pick_branch_var() {
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(v.lit(self.polarity[v.index()]), NO_REASON);
                    }
                    None => {
                        let model = Model(self.assigns.iter().map(|&a| a == 1).collect());
                        self.cancel_until(0);
                        return SatResult::Sat(model);
                    }
                }
            }
        }
    }

    // ---- internals ------------------------------------------------------

    #[inline]
    fn value(&self, v: Var) -> u8 {
        self.assigns[v.index()]
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> Option<bool> {
        match self.value(l.var()) {
            UNDEF => None,
            b => Some(l.eval(b == 1)),
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l.var()), UNDEF);
        let vi = l.var().index();
        self.assigns[vi] = (!l.is_neg()) as u8;
        self.level[vi] = self.decision_level();
        self.reason[vi] = reason;
        self.trail.push(l);
    }

    /// Two-watched-literal unit propagation. Returns a conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        let mut confl: Option<u32> = None;
        while confl.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut kept = 0usize;
            let mut j = 0usize;
            while j < ws.len() {
                let cref = ws[j];
                j += 1;
                let lits = &mut self.clauses[cref as usize].lits;
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if lit_val(&self.assigns, first) == Some(true) {
                    ws[kept] = cref;
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch among the tail literals.
                let mut moved = false;
                for k in 2..lits.len() {
                    if lit_val(&self.assigns, lits[k]) != Some(false) {
                        lits.swap(1, k);
                        let new_watch = lits[1];
                        self.watches[new_watch.code()].push(cref);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting under the current trail.
                ws[kept] = cref;
                kept += 1;
                if lit_val(&self.assigns, first) == Some(false) {
                    confl = Some(cref);
                    // Keep the unprocessed suffix of the watch list.
                    while j < ws.len() {
                        ws[kept] = ws[j];
                        kept += 1;
                        j += 1;
                    }
                } else {
                    self.enqueue(first, cref);
                }
            }
            ws.truncate(kept);
            self.watches[false_lit.code()] = ws;
        }
        confl
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first, a backjump-level literal second) and the backjump
    /// level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0: asserting literal
        let mut seen = vec![false; self.num_vars()];
        let current = self.decision_level();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = confl;
        loop {
            for qi in 0..self.clauses[cref as usize].lits.len() {
                let q = self.clauses[cref as usize].lits[qi];
                // Skip the literal being resolved on (the reason clause
                // contains it in asserting polarity).
                if Some(q) == p {
                    continue;
                }
                let vi = q.var().index();
                if !seen[vi] && self.level[vi] > 0 {
                    seen[vi] = true;
                    self.bump_activity(q.var());
                    if self.level[vi] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            cref = self.reason[lit.var().index()];
            debug_assert_ne!(cref, NO_REASON, "non-UIP literal must have a reason");
        }
        // Backjump level: the highest level among the non-asserting
        // literals; move one literal of that level to slot 1 so the watch
        // invariant holds after backjumping.
        let mut back_level = 0u32;
        let mut at = 1usize;
        for (k, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > back_level {
                back_level = lv;
                at = k;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, at);
        }
        (learnt, back_level)
    }

    /// Attach a learnt clause and enqueue its asserting literal.
    fn learn(&mut self, learnt: Vec<Lit>) {
        self.stats.learned += 1;
        match learnt.as_slice() {
            [unit] => {
                debug_assert_eq!(self.decision_level(), 0);
                self.enqueue(*unit, NO_REASON);
            }
            _ => {
                let cref = self.clauses.len() as u32;
                self.watches[learnt[0].code()].push(cref);
                self.watches[learnt[1].code()].push(cref);
                let asserting = learnt[0];
                self.clauses.push(Clause { lits: learnt });
                self.enqueue(asserting, cref);
            }
        }
    }

    /// Undo all assignments above `target_level`, saving phases.
    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let keep = self.trail_lim[target_level as usize];
        for k in (keep..self.trail.len()).rev() {
            let l = self.trail[k];
            let vi = l.var().index();
            self.polarity[vi] = !l.is_neg();
            self.assigns[vi] = UNDEF;
            self.reason[vi] = NO_REASON;
            self.heap_insert(l.var());
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = keep;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.value(v) == UNDEF {
                return Some(v);
            }
        }
        None
    }

    fn bump_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v.index()] != usize::MAX {
            self.heap_sift_up(self.heap_pos[v.index()]);
        }
    }

    fn decay_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    // ---- activity-ordered heap ------------------------------------------

    /// `a` strictly precedes `b`: higher activity wins, lower index breaks
    /// ties (the determinism anchor of the decision heuristic).
    #[inline]
    fn heap_before(&self, a: Var, b: Var) -> bool {
        let (aa, ab) = (self.activity[a.index()], self.activity[b.index()]);
        aa > ab || (aa == ab && a.0 < b.0)
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_pos[v.index()] != usize::MAX {
            return;
        }
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        let top = *self.heap.first()?;
        self.heap_pos[top.index()] = usize::MAX;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_sift_up(&mut self, mut k: usize) {
        while k > 0 {
            let parent = (k - 1) / 2;
            if self.heap_before(self.heap[k], self.heap[parent]) {
                self.heap_swap(k, parent);
                k = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut k: usize) {
        loop {
            let (l, r) = (2 * k + 1, 2 * k + 2);
            let mut best = k;
            if l < self.heap.len() && self.heap_before(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_before(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == k {
                break;
            }
            self.heap_swap(k, best);
            k = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a].index()] = a;
        self.heap_pos[self.heap[b].index()] = b;
    }
}

#[inline]
fn lit_val(assigns: &[u8], l: Lit) -> Option<bool> {
    match assigns[l.var().index()] {
        UNDEF => None,
        b => Some(l.eval(b == 1)),
    }
}

/// The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, … (1-indexed).
fn luby(i: u64) -> u64 {
    // Descend through the self-similar structure: the sequence's prefix of
    // length 2^seq - 1 ends with 2^(seq-1).
    let mut x = i - 1;
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&x| {
                let v = Var(x.unsigned_abs() - 1);
                v.lit(x > 0)
            })
            .collect()
    }

    fn solver_with(num_vars: usize, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(&lits(c));
        }
        s
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(prefix, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(matches!(s.solve(), SatResult::Sat(_)));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert!(s.solve().is_unsat());
        // The solver stays unsat afterwards.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let cls: &[&[i32]] = &[&[1, 2, -3], &[-1, 3], &[-2, 3], &[1, -2], &[2, -1, 3]];
        let mut s = solver_with(3, cls);
        let SatResult::Sat(m) = s.solve() else {
            panic!("satisfiable");
        };
        for c in cls {
            assert!(lits(c).iter().any(|&l| m.lit(l)), "clause {c:?} falsified");
        }
    }

    #[test]
    fn tautology_and_duplicates_are_harmless() {
        let mut s = solver_with(2, &[&[1, -1], &[2, 2, 2]]);
        let SatResult::Sat(m) = s.solve() else {
            panic!("satisfiable");
        };
        assert!(m.value(Var(1)));
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // Pigeonhole 4→3 needs more than one conflict.
        let mut s = pigeonhole(4, 3);
        assert_eq!(s.solve_limited(1), SatResult::Unknown);
        // And the full search still finishes it off afterwards.
        assert!(s.solve().is_unsat());

        // A budget of 0 must also leave the solver at level 0: adding a
        // clause afterwards is legal and the search still concludes.
        let mut s = pigeonhole(4, 3);
        assert_eq!(s.solve_limited(0), SatResult::Unknown);
        s.add_clause(&[Var(0).pos(), Var(1).pos(), Var(2).pos()]);
        assert!(s.solve().is_unsat());
    }

    /// PHP(p, h): p pigeons into h holes, UNSAT when p > h.
    /// Variable `x_{i,j}` = pigeon i sits in hole j.
    fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new();
        let var = |i: usize, j: usize| Var((i * holes + j) as u32);
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        for i in 0..pigeons {
            let c: Vec<Lit> = (0..holes).map(|j| var(i, j).pos()).collect();
            s.add_clause(&c);
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in a + 1..pigeons {
                    s.add_clause(&[var(a, j).neg(), var(b, j).neg()]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat_and_fit_sat() {
        assert!(pigeonhole(5, 4).solve().is_unsat());
        assert!(pigeonhole(6, 5).solve().is_unsat());
        let SatResult::Sat(m) = pigeonhole(4, 4).solve() else {
            panic!("4 pigeons fit 4 holes");
        };
        // Exactly one hole per pigeon row is allowed to be multiple? No —
        // at-least-one per pigeon and at-most-one-pigeon per hole: check.
        for i in 0..4 {
            assert!((0..4).any(|j| m.value(Var((i * 4 + j) as u32))));
        }
        for j in 0..4 {
            assert!((0..4).filter(|i| m.value(Var((i * 4 + j) as u32))).count() <= 1);
        }
    }

    #[test]
    fn unit_propagation_chain_needs_no_decisions() {
        // x1, x1→x2, x2→x3, …, x9→x10: all forced at level 0.
        let mut s = Solver::new();
        for _ in 0..10 {
            s.new_var();
        }
        s.add_clause(&lits(&[1]));
        for k in 1..10i32 {
            s.add_clause(&lits(&[-k, k + 1]));
        }
        let SatResult::Sat(m) = s.solve() else {
            panic!("chain is satisfiable");
        };
        assert!((0..10).all(|v| m.value(Var(v))));
        assert_eq!(s.stats.decisions, 0, "pure propagation");
        assert_eq!(s.stats.conflicts, 0);
    }

    #[test]
    fn deterministic_stats_across_runs() {
        let run = || {
            let mut s = pigeonhole(6, 5);
            assert!(s.solve().is_unsat());
            s.stats
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical input must give identical search traces");
        assert!(a.conflicts > 0);
    }

    #[test]
    fn clauses_added_after_level0_propagation() {
        // A unit clause propagates eagerly inside add_clause; a later
        // clause already satisfied at level 0 must be dropped harmlessly.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[a.pos()]));
        assert!(s.add_clause(&[a.pos(), b.pos()]));
        assert!(s.add_clause(&[a.neg(), b.pos()]));
        let SatResult::Sat(m) = s.solve() else {
            panic!("satisfiable");
        };
        assert!(m.value(a));
        assert!(m.value(b));
    }

    #[test]
    fn level0_conflict_via_add_clause() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos()]);
        s.add_clause(&[a.neg(), b.pos()]);
        assert!(!s.add_clause(&[b.neg()]), "contradiction at level 0");
        assert!(s.solve().is_unsat());
    }
}
