//! Brute-force cross-validation of the CDCL solver on random small CNF
//! formulas: the solver's verdict must match exhaustive enumeration over
//! all assignments, every model must satisfy every clause, and repeated
//! runs must produce identical statistics.
//!
//! Runs deterministically from fixed seeds with the in-tree RNG so the
//! suite needs no external crates (the build environment is offline).

use fbt_netlist::rng::Rng;
use fbt_sat::{Lit, SatResult, Solver, Var};

/// A random CNF: up to 13 variables, mixed clause widths 1–4.
fn random_cnf(rng: &mut Rng) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = 3 + (rng.next_u64() % 11) as usize; // 3..14
    let num_clauses = num_vars + (rng.next_u64() % (3 * num_vars as u64)) as usize;
    let clauses = (0..num_clauses)
        .map(|_| {
            let width = 1 + (rng.next_u64() % 4) as usize;
            (0..width)
                .map(|_| Var((rng.next_u64() % num_vars as u64) as u32).lit(rng.bit()))
                .collect()
        })
        .collect();
    (num_vars, clauses)
}

fn clause_satisfied(clause: &[Lit], assignment: u64) -> bool {
    clause
        .iter()
        .any(|l| l.eval((assignment >> l.var().index()) & 1 == 1))
}

fn brute_force_satisfiable(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    (0..1u64 << num_vars).any(|a| clauses.iter().all(|c| clause_satisfied(c, a)))
}

fn build_solver(num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c);
    }
    s
}

#[test]
fn verdicts_match_exhaustive_enumeration() {
    let mut rng = Rng::new(0x5A7_F0C5);
    for round in 0..400 {
        let (num_vars, clauses) = random_cnf(&mut rng);
        let brute = brute_force_satisfiable(num_vars, &clauses);
        let mut solver = build_solver(num_vars, &clauses);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(
                    brute,
                    "round {round}: solver found a model, brute force none"
                );
                for (ci, c) in clauses.iter().enumerate() {
                    assert!(
                        c.iter().any(|&l| model.lit(l)),
                        "round {round}: clause {ci} falsified by the model"
                    );
                }
            }
            SatResult::Unsat => {
                assert!(
                    !brute,
                    "round {round}: solver said UNSAT, brute force disagrees"
                );
            }
            SatResult::Unknown => panic!("round {round}: no conflict limit was set"),
        }
    }
}

#[test]
fn twenty_variable_formulas_round_trip() {
    // Wider formulas near the documented 20-variable brute-force ceiling.
    let mut rng = Rng::new(0xBEA7ED);
    for round in 0..8 {
        let num_vars = 18 + (rng.next_u64() % 3) as usize; // 18..21
        let num_clauses = 4 * num_vars;
        let clauses: Vec<Vec<Lit>> = (0..num_clauses)
            .map(|_| {
                (0..3)
                    .map(|_| Var((rng.next_u64() % num_vars as u64) as u32).lit(rng.bit()))
                    .collect()
            })
            .collect();
        let brute = brute_force_satisfiable(num_vars, &clauses);
        let mut solver = build_solver(num_vars, &clauses);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(brute, "round {round}");
                assert!(clauses.iter().all(|c| c.iter().any(|&l| model.lit(l))));
            }
            SatResult::Unsat => assert!(!brute, "round {round}"),
            SatResult::Unknown => panic!("round {round}: no conflict limit was set"),
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let mut rng = Rng::new(0xD373C7);
    for _ in 0..50 {
        let (num_vars, clauses) = random_cnf(&mut rng);
        let run = || {
            let mut solver = build_solver(num_vars, &clauses);
            let verdict = match solver.solve() {
                SatResult::Sat(m) => Some(m),
                SatResult::Unsat => None,
                SatResult::Unknown => panic!("no conflict limit was set"),
            };
            (verdict, solver.stats)
        };
        let (model_a, stats_a) = run();
        let (model_b, stats_b) = run();
        assert_eq!(
            model_a, model_b,
            "identical input must give identical models"
        );
        assert_eq!(
            stats_a, stats_b,
            "identical input must give identical stats"
        );
    }
}
