//! Randomized validation of the CDCL solver against a brute-force reference
//! on small formulas, generated deterministically with [`rtl::SplitMix64`].

mod common;

use common::brute_force_sat;
use rtl::SplitMix64;
use sat::{Lit, SatResult, Solver, Var};

fn random_clause(rng: &mut SplitMix64, num_vars: usize) -> Vec<Lit> {
    let len = rng.gen_range(1..=3) as usize;
    (0..len)
        .map(|_| {
            let v = rng.gen_u64_below(num_vars as u64) as usize;
            Lit::new(Var::from_index(v), rng.gen_bool())
        })
        .collect()
}

/// The solver agrees with brute force on random 3-SAT-ish formulas, and the
/// models it returns satisfy every clause.
#[test]
fn solver_agrees_with_brute_force() {
    let mut rng = SplitMix64::new(0x5a7);
    for case in 0..64 {
        let num_vars = rng.gen_range(3..9) as usize;
        let num_clauses = rng.gen_range(1..24) as usize;
        let clauses: Vec<Vec<Lit>> = (0..num_clauses)
            .map(|_| random_clause(&mut rng, num_vars))
            .collect();

        let mut solver = Solver::new();
        solver.reserve_vars(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        let expected = brute_force_sat(num_vars, &clauses);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(expected, "case {case}: solver sat, brute force unsat");
                for clause in &clauses {
                    assert!(
                        clause.iter().any(|&l| model.lit_is_true(l)),
                        "case {case}: model does not satisfy {clause:?}"
                    );
                }
            }
            SatResult::Unsat => {
                assert!(!expected, "case {case}: solver unsat, brute force sat")
            }
            SatResult::Unknown => panic!("no limit was set, Unknown is impossible"),
        }
    }
}
