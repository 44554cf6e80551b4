//! The solver's answers: satisfying assignments and query results.

use crate::{Lit, Var};

/// A satisfying assignment returned by the solver.
///
/// # Examples
///
/// ```
/// use sat::{SatResult, Solver};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// solver.add_clause([!a]);
/// match solver.solve() {
///     SatResult::Sat(model) => {
///         assert!(!model.value(a.var()));
///         assert!(model.lit_is_true(!a));
///     }
///     other => panic!("expected sat, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    pub(crate) fn new(values: Vec<bool>) -> Self {
        Self { values }
    }

    /// Value assigned to a variable (`false` for variables the solver never
    /// saw, which is a safe completion for Tseitin-encoded formulas).
    pub fn value(&self, var: Var) -> bool {
        self.values.get(var.index()).copied().unwrap_or(false)
    }

    /// Whether a literal is satisfied by the model.
    pub fn lit_is_true(&self, lit: Lit) -> bool {
        self.value(lit.var()) == lit.is_positive()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Outcome of a satisfiability query.
///
/// # Examples
///
/// ```
/// use sat::Solver;
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// solver.add_clause([a]);
/// let result = solver.solve();
/// assert!(result.is_sat() && !result.is_unsat());
/// assert!(result.model().unwrap().lit_is_true(a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a model is provided.
    Sat(Model),
    /// The formula is unsatisfiable (under the given assumptions).
    Unsat,
    /// The solver gave up because a resource limit was reached.
    Unknown,
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// The model, if the result is `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_lookup() {
        let m = Model::new(vec![true, false]);
        assert!(m.value(Var::from_index(0)));
        assert!(!m.value(Var::from_index(1)));
        assert!(!m.value(Var::from_index(9)));
        assert!(m.lit_is_true(Var::from_index(0).positive()));
        assert!(m.lit_is_true(Var::from_index(1).negative()));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn sat_result_accessors() {
        let sat = SatResult::Sat(Model::new(vec![true]));
        assert!(sat.is_sat());
        assert!(!sat.is_unsat());
        assert!(sat.model().is_some());
        assert!(SatResult::Unsat.is_unsat());
        assert!(SatResult::Unknown.model().is_none());
    }
}
