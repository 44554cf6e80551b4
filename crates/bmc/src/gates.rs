//! Tseitin encoding of Boolean gates into a SAT solver.

use sat::{Lit, Solver};
use std::collections::HashMap;

/// Key used for structural hashing of gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GateKey {
    And(Lit, Lit),
    Xor(Lit, Lit),
    Mux(Lit, Lit, Lit),
}

impl GateKey {
    /// Whether any operand literal satisfies the predicate.
    fn any_lit(&self, mut pred: impl FnMut(Lit) -> bool) -> bool {
        match *self {
            GateKey::And(a, b) | GateKey::Xor(a, b) => pred(a) || pred(b),
            GateKey::Mux(c, t, e) => pred(c) || pred(t) || pred(e),
        }
    }
}

/// Helper that allocates Tseitin variables for Boolean gates on top of a
/// [`sat::Solver`].
///
/// The builder owns the solver for the duration of an encoding session and
/// provides a constant-true literal plus standard gate constructors. Constant
/// operands are folded and structurally identical gates are hash-consed so
/// that the generated CNF stays small — in particular, the two structurally
/// identical SoC instances of a UPEC miter largely collapse onto the same
/// variables wherever their inputs are shared.
#[derive(Debug)]
pub(crate) struct GateBuilder {
    solver: Solver,
    true_lit: Lit,
    structural: HashMap<GateKey, Lit>,
}

impl GateBuilder {
    /// Creates a builder with a fresh solver.
    pub fn new() -> Self {
        let mut solver = Solver::new();
        let true_lit = solver.new_var().positive();
        solver.freeze(true_lit);
        solver.add_clause([true_lit]);
        Self {
            solver,
            true_lit,
            structural: HashMap::new(),
        }
    }

    /// Freezes a literal's variable: the CNF simplifier will never eliminate
    /// it, so it stays legal in later clauses, assumptions and model reads.
    /// See [`sat::Solver::freeze_var`] for the underlying contract.
    pub fn freeze(&mut self, l: Lit) {
        self.solver.freeze(l);
    }

    /// Runs the solver's incremental-safe simplification pipeline
    /// ([`sat::Solver::simplify`], probing for at most
    /// `max_probe_propagations` propagations) and then purges every structural-hash
    /// entry that refers to an eliminated variable, so a later identical gate
    /// request re-encodes with a fresh output instead of resurrecting a
    /// variable whose defining clauses are gone.
    ///
    /// Returns `false` if simplification proved the formula unsatisfiable.
    pub fn simplify(&mut self, max_probe_propagations: u64) -> bool {
        let ok = self.solver.simplify(max_probe_propagations);
        let solver = &self.solver;
        self.structural.retain(|key, out| {
            !solver.is_eliminated(out.var()) && !key.any_lit(|l| solver.is_eliminated(l.var()))
        });
        ok
    }

    /// Literal that is constrained to be true.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// Literal that is constrained to be false.
    pub fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    /// Converts a Boolean constant into a literal.
    pub fn constant(&self, value: bool) -> Lit {
        if value {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    /// Whether a literal is the constant true literal.
    fn is_true(&self, l: Lit) -> bool {
        l == self.true_lit
    }

    /// Whether a literal is the constant false literal.
    fn is_false(&self, l: Lit) -> bool {
        l == self.false_lit()
    }

    /// Allocates a fresh unconstrained literal.
    pub fn fresh(&mut self) -> Lit {
        self.solver.new_var().positive()
    }

    /// Adds a clause directly.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        self.solver.add_clause(lits);
    }

    /// Asserts that a literal is true.
    pub fn assert_true(&mut self, l: Lit) {
        self.solver.add_clause([l]);
    }

    /// Asserts that two literals are equal.
    pub fn assert_equal(&mut self, a: Lit, b: Lit) {
        self.solver.add_clause([!a, b]);
        self.solver.add_clause([a, !b]);
    }

    /// `out = a AND b`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) || self.is_false(b) {
            return self.false_lit();
        }
        if self.is_true(a) {
            return b;
        }
        if self.is_true(b) {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let key = GateKey::And(a.min(b), a.max(b));
        if let Some(&out) = self.structural.get(&key) {
            return out;
        }
        let out = self.fresh();
        self.solver.add_clause([!out, a]);
        self.solver.add_clause([!out, b]);
        self.solver.add_clause([out, !a, !b]);
        self.structural.insert(key, out);
        out
    }

    /// `out = a OR b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let na = !a;
        let nb = !b;
        let and = self.and(na, nb);
        !and
    }

    /// `out = a XOR b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if self.is_true(a) {
            return !b;
        }
        if self.is_true(b) {
            return !a;
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit;
        }
        let key = GateKey::Xor(a.min(b), a.max(b));
        if let Some(&out) = self.structural.get(&key) {
            return out;
        }
        let out = self.fresh();
        self.solver.add_clause([!out, a, b]);
        self.solver.add_clause([!out, !a, !b]);
        self.solver.add_clause([out, !a, b]);
        self.solver.add_clause([out, a, !b]);
        self.structural.insert(key, out);
        out
    }

    /// `out = (a == b)` (XNOR).
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.xor(a, b);
        !x
    }

    /// `out = cond ? then_ : else_`.
    pub fn mux(&mut self, cond: Lit, then_: Lit, else_: Lit) -> Lit {
        if self.is_true(cond) {
            return then_;
        }
        if self.is_false(cond) {
            return else_;
        }
        if then_ == else_ {
            return then_;
        }
        let key = GateKey::Mux(cond, then_, else_);
        if let Some(&out) = self.structural.get(&key) {
            return out;
        }
        let out = self.fresh();
        self.solver.add_clause([!cond, !then_, out]);
        self.solver.add_clause([!cond, then_, !out]);
        self.solver.add_clause([cond, !else_, out]);
        self.solver.add_clause([cond, else_, !out]);
        self.structural.insert(key, out);
        out
    }

    /// AND over many literals.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.true_lit;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// OR over many literals.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.false_lit();
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Full adder: returns `(sum, carry_out)`.
    pub fn full_adder(&mut self, a: Lit, b: Lit, carry_in: Lit) -> (Lit, Lit) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, carry_in);
        let ab = self.and(a, b);
        let c_axb = self.and(axb, carry_in);
        let carry = self.or(ab, c_axb);
        (sum, carry)
    }

    /// Access to the underlying solver (e.g. to run queries).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Read-only access to the underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::SatResult;

    fn all_assignments(n: usize) -> Vec<Vec<bool>> {
        (0..1usize << n)
            .map(|m| (0..n).map(|i| (m >> i) & 1 == 1).collect())
            .collect()
    }

    /// Exhaustively checks a 2-input gate against a reference function by
    /// querying the solver once per input/output combination.
    fn check_gate2(
        build: impl Fn(&mut GateBuilder, Lit, Lit) -> Lit,
        reference: impl Fn(bool, bool) -> bool,
    ) {
        for assignment in all_assignments(2) {
            let mut g = GateBuilder::new();
            let a = g.fresh();
            let b = g.fresh();
            let out = build(&mut g, a, b);
            let expected = reference(assignment[0], assignment[1]);
            let assumption = [
                if assignment[0] { a } else { !a },
                if assignment[1] { b } else { !b },
                if expected { out } else { !out },
            ];
            assert!(
                g.solver_mut().solve_with_assumptions(&assumption).is_sat(),
                "gate disagrees with reference for {assignment:?}"
            );
            let wrong = [
                if assignment[0] { a } else { !a },
                if assignment[1] { b } else { !b },
                if expected { !out } else { out },
            ];
            assert!(
                g.solver_mut().solve_with_assumptions(&wrong).is_unsat(),
                "gate output is not functionally determined for {assignment:?}"
            );
        }
    }

    #[test]
    fn and_or_xor_match_reference() {
        check_gate2(|g, a, b| g.and(a, b), |a, b| a && b);
        check_gate2(|g, a, b| g.or(a, b), |a, b| a || b);
        check_gate2(|g, a, b| g.xor(a, b), |a, b| a ^ b);
        check_gate2(|g, a, b| g.xnor(a, b), |a, b| a == b);
    }

    #[test]
    fn mux_matches_reference() {
        for assignment in all_assignments(3) {
            let mut g = GateBuilder::new();
            let c = g.fresh();
            let t = g.fresh();
            let e = g.fresh();
            let out = g.mux(c, t, e);
            let expected = if assignment[0] {
                assignment[1]
            } else {
                assignment[2]
            };
            let mut assumption = vec![
                if assignment[0] { c } else { !c },
                if assignment[1] { t } else { !t },
                if assignment[2] { e } else { !e },
            ];
            assumption.push(if expected { out } else { !out });
            assert!(g.solver_mut().solve_with_assumptions(&assumption).is_sat());
            *assumption.last_mut().unwrap() = if expected { !out } else { out };
            assert!(g
                .solver_mut()
                .solve_with_assumptions(&assumption)
                .is_unsat());
        }
    }

    #[test]
    fn constant_folding_avoids_new_variables() {
        let mut g = GateBuilder::new();
        let a = g.fresh();
        let vars_before = g.solver().num_vars();
        let t = g.true_lit();
        let f = g.false_lit();
        assert_eq!(g.and(a, t), a);
        assert_eq!(g.and(a, f), f);
        assert_eq!(g.or(a, f), a);
        assert_eq!(g.xor(a, f), a);
        assert_eq!(g.xor(a, t), !a);
        assert_eq!(g.mux(t, a, f), a);
        assert_eq!(g.and(a, !a), f);
        assert_eq!(g.xor(a, a), f);
        assert_eq!(g.solver().num_vars(), vars_before);
    }

    #[test]
    fn full_adder_truth_table() {
        for assignment in all_assignments(3) {
            let mut g = GateBuilder::new();
            let a = g.fresh();
            let b = g.fresh();
            let c = g.fresh();
            let (sum, carry) = g.full_adder(a, b, c);
            let total = assignment.iter().filter(|&&x| x).count();
            let expect_sum = total % 2 == 1;
            let expect_carry = total >= 2;
            let assumption = [
                if assignment[0] { a } else { !a },
                if assignment[1] { b } else { !b },
                if assignment[2] { c } else { !c },
            ];
            match g.solver_mut().solve_with_assumptions(&assumption) {
                SatResult::Sat(m) => {
                    assert_eq!(m.lit_is_true(sum), expect_sum, "sum for {assignment:?}");
                    assert_eq!(
                        m.lit_is_true(carry),
                        expect_carry,
                        "carry for {assignment:?}"
                    );
                }
                other => panic!("expected sat, got {other:?}"),
            }
        }
    }

    #[test]
    fn assert_equal_links_literals() {
        let mut g = GateBuilder::new();
        let a = g.fresh();
        let b = g.fresh();
        g.assert_equal(a, b);
        assert!(g.solver_mut().solve_with_assumptions(&[a, !b]).is_unsat());
        assert!(g.solver_mut().solve_with_assumptions(&[a, b]).is_sat());
    }
}
