//! Helpers shared by the solver's integration tests.

use sat::Lit;

/// Brute-force satisfiability check for formulas with at most 16 variables:
/// the independent reference every randomized solver test compares against.
pub fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    assert!(num_vars <= 16);
    'outer: for assignment in 0u32..(1 << num_vars) {
        for clause in clauses {
            let satisfied = clause.iter().any(|l| {
                let value = (assignment >> l.var().index()) & 1 == 1;
                value == l.is_positive()
            });
            if !satisfied {
                if clause.is_empty() {
                    return false;
                }
                continue 'outer;
            }
        }
        return true;
    }
    false
}
