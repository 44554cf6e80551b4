//! # `soc` — the MiniRV SoC generator (RocketChip stand-in)
//!
//! This crate provides the system under verification for the UPEC
//! reproduction: a parameterized, in-order, 5-stage RV32-subset SoC with a
//! pipelined write-allocate data cache, physical memory protection (PMP) and
//! precise exceptions — plus the deliberately weakened design variants
//! evaluated in the paper (Meltdown-style refill, Orc replay-buffer bypass
//! and the PMP TOR-lock bug).
//!
//! The design is generated as an [`rtl::Netlist`], so the same description is
//! simulated cycle-accurately (attack demonstrations, co-simulation against
//! the ISA-level golden model) and bit-blasted for the UPEC proofs in the
//! `upec` crate.
//!
//! Main entry points:
//!
//! * [`SocConfig`] / [`SocVariant`] — the design under test: the variant
//!   (which weakened mechanism, if any, the generator builds) and four
//!   geometry knobs; the memory map is the fixed [`SECRET_ADDR`],
//!   [`PROTECTED_BASE`], [`PROTECTED_TOP`] and [`TRAP_VECTOR`],
//! * [`build_soc`] — elaborate one SoC instance into a netlist,
//! * [`SocSim`] — run programs on the RTL with behavioural memories,
//! * [`Program`] / [`Instruction`] — assembler for attacker/victim programs,
//! * [`GoldenModel`] — ISA-level reference model for co-simulation.

#![warn(missing_docs)]

mod cache;
mod config;
mod core;
pub mod fuzz;
mod golden;
mod harness;
pub mod isa;

pub use cache::{build_cache, CacheRequest, CacheSignals};
pub use config::{SocConfig, SocVariant, PROTECTED_BASE, PROTECTED_TOP, SECRET_ADDR, TRAP_VECTOR};
pub use core::{build_soc, SocInstance};
pub use golden::{GoldenModel, Mode};
pub use harness::SocSim;
pub use isa::{Instruction, Program};
