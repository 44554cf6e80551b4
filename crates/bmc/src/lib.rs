//! # `bmc` — bounded model checking from a symbolic initial state
//!
//! This crate is the formal-verification engine of the UPEC reproduction. It
//! takes a word-level [`rtl::Netlist`], bit-blasts it into CNF with Tseitin
//! encoding, unrolls its transition relation over a bounded time window, and
//! decides properties with the [`sat`] CDCL solver.
//!
//! [`Unrolling`] is the one query layer: per-frame literals for every
//! signal, hard constraints, assumption-based queries and model/value
//! extraction. Every register starts fully *symbolic* in frame 0 (the
//! "any-state proof" of interval property checking), which is how the UPEC
//! miter proofs in the `upec` crate drive it; a caller that wants a concrete
//! start pins frame-0 registers with
//! [`Unrolling::assume_signal_equals_const`]. [`CompiledTransition`]
//! validates the netlist, prunes it to the cone of influence of its roots,
//! and folds and hashes it once, so every frame instantiates the same dense
//! schedule lazily; an unrolling is built from that schedule alone and
//! holds no netlist.
//! [`UnrollOptions`] holds all of a query's settings: a per-call
//! [`sat::Budget`], the trial cap that gates CNF simplification, and proof
//! logging; the solver underneath has no feature switches, and
//! [`Unrolling::solver`] reads its counters.
//!
//! Two spans come from this crate: `bmc.compile` (one per compilation, with
//! the schedule's size and what pruning, hashing and folding removed) and
//! `bmc.trial_solve` (the capped solve that gates simplification). The
//! `upec` session records its encoding as `bmc.encode`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rtl::Netlist;
//! use bmc::{CompiledTransition, UnrollOptions, Unrolling};
//!
//! // Prove that a two-entry shift register delivers its input after two
//! // cycles, for every possible starting state.
//! let mut n = Netlist::new("shift2");
//! let data_in = n.input("in", 4);
//! let s1 = n.register("s1", 4);
//! let s2 = n.register("s2", 4);
//! n.set_next(s1, data_in);
//! n.set_next(s2, s1.value());
//! let nine = n.lit(9, 4);
//! let in_is_9 = n.eq(data_in, nine);
//! let out_is_9 = n.eq(s2.value(), nine);
//!
//! let compiled = Arc::new(CompiledTransition::compile(&n, &[in_is_9, out_is_9]));
//! let mut unrolling = Unrolling::with_compiled(compiled, UnrollOptions::default(), &[]);
//! unrolling.extend_to(2);
//! // Assume the input is 9 at cycle 0 and ask for an output other than 9
//! // at cycle 2: no assignment exists, so the property holds.
//! unrolling.assume_signal_true(0, in_is_9).unwrap();
//! let out = unrolling.bit_lit(2, out_is_9).unwrap();
//! assert!(unrolling.solve(&[!out]).is_unsat());
//! ```

#![warn(missing_docs)]

mod compile;
mod gates;
mod unroll;

pub use compile::CompiledTransition;
pub use unroll::{UnrollError, UnrollOptions, Unrolling};
