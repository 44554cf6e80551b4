//! # `rtl` — word-level register-transfer-level intermediate representation
//!
//! This crate provides the hardware representation shared by the whole UPEC
//! reproduction workspace. Designs are *constructed* (rather than parsed from
//! Verilog, which has no mature Rust ecosystem) as word-level netlists: DAGs
//! of bit-vector expressions plus registers and primary inputs.
//!
//! The representation is deliberately close to what a synthesizable RTL
//! description elaborates into:
//!
//! * [`BitVec`] — constant bit-vector values (1..=64 bits, modular
//!   arithmetic),
//! * [`Node`] — word-level operators (bitwise logic, add/sub, comparisons,
//!   shifts, mux, slice, concat),
//! * [`Netlist`] — the design container: expression DAG, registers with
//!   next-state functions and optional reset values, primary inputs and
//!   hierarchical names.
//!
//! Two engines consume the representation:
//!
//! * the [`sim`](https://docs.rs/sim) crate evaluates it cycle-accurately at
//!   the word level, and
//! * the [`bmc`](https://docs.rs/bmc) crate bit-blasts it to CNF for the
//!   SAT-based interval property checking (IPC) used by UPEC.
//!
//! Registers declared *without* an initial value start in a symbolic state —
//! this is the "any-state proof" foundation of interval property checking
//! described in Sec. V of the UPEC paper.
//!
//! # Example
//!
//! ```
//! use rtl::{Netlist, BitVec};
//!
//! // A 2-bit saturating counter.
//! let mut n = Netlist::new("saturating_counter");
//! let step = n.input("step", 1);
//! let count = n.register_init("count", 2, BitVec::zero(2));
//! let max = n.lit(0b11, 2);
//! let at_max = n.eq(count.value(), max);
//! let one = n.lit(1, 2);
//! let incremented = n.add(count.value(), one);
//! let held = n.mux(at_max, count.value(), incremented);
//! let next = n.mux(step, held, count.value());
//! n.set_next(count, next);
//!
//! n.validate()?;
//! assert_eq!(n.register_count(), 1);
//! assert_eq!(n.inputs().len(), 1);
//! # Ok::<(), rtl::RtlError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod netlist;
mod node;
mod rng;
mod value;

pub use error::RtlError;
pub use netlist::{Netlist, RegisterHandle, RegisterInfo};
pub use node::{BinaryOp, Node, RegisterId, SignalId, UnaryOp};
pub use rng::SplitMix64;
pub use value::{BitVec, MAX_WIDTH};
