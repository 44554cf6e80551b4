//! # `sat` — a conflict-driven clause-learning SAT solver
//!
//! This crate provides the satisfiability engine underneath the bounded
//! model checking and interval property checking (IPC) performed by the
//! `bmc` crate, which in turn carries the UPEC security proofs. The paper
//! uses a commercial property checker (OneSpin 360 DV-Verify); this solver is
//! the open, from-scratch substitute for its SAT back end.
//!
//! The implementation follows the MiniSat architecture:
//!
//! * two watched literals per clause,
//! * first-UIP conflict analysis with clause learning,
//! * VSIDS variable activities and phase saving,
//! * a modern search loop, always on: glucose-style EMA restarts layered on
//!   the Luby cadence with an LBD-quality gate, target rephasing,
//!   chronological backtracking for far backjumps and clause vivification
//!   as inprocessing ([`Solver::vivify`]),
//! * periodic deletion of inactive learned clauses,
//! * solving under assumptions,
//! * **budgeted, cancellable episodes**: a deterministic per-episode
//!   conflict [`Budget`] (never wall-clock) whose exhaustion yields a
//!   resumable [`SatResult::Unknown`], a restart-boundary [`CancelToken`],
//!   and a
//!   [`StopCause`] telling callers why an episode stopped (see
//!   `docs/robustness.md`),
//! * **incremental sessions**: clauses and variables may be added between
//!   `solve` calls while learned clauses, activities and phases persist;
//!   retractable obligations via activation literals; per-call effort
//!   accounting ([`SolverStats::delta_since`]),
//! * an **incremental-safe simplification pipeline** ([`Solver::simplify`]):
//!   failed-literal probing, subsumption, self-subsuming resolution and
//!   bounded variable elimination between solve calls, kept sound for
//!   incremental use by a frozen-variable contract ([`Solver::freeze_var`])
//!   and automatic model extension over eliminated variables,
//! * **checkable unsat certificates** ([`Solver::start_proof_log`]): every
//!   clause addition and deletion — search, database reduction and the whole
//!   simplification pipeline — can be recorded as a DRAT-style
//!   [`ProofLog`] and replayed by the independent reverse-unit-propagation
//!   checker in [`drat`].
//!
//! The architecture is documented in depth in `docs/solver.md` (and the
//! certificate format in `docs/certificates.md`) at the repository root.
//!
//! # Example
//!
//! ```
//! use sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var().positive();
//! let y = solver.new_var().positive();
//! solver.add_clause([x, y]);
//! solver.add_clause([!x, y]);
//! assert!(matches!(solver.solve(), SatResult::Sat(m) if m.lit_is_true(y)));
//! ```

#![deny(missing_docs)]

mod cnf;
pub mod drat;
#[cfg(any(test, feature = "faults"))]
pub mod faults;
mod lit;
mod simplify;
mod solver;

pub use cnf::{Model, SatResult};
pub use drat::ProofLog;
pub use lit::{LBool, Lit, Var};
pub use simplify::SimplifyStats;
pub use solver::{Budget, CancelToken, Solver, SolverStats, StopCause};
