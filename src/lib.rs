//! Umbrella package for the UPEC reproduction workspace.
//!
//! This crate re-exports the individual workspace crates so that the
//! repository-level examples and integration tests can refer to every
//! subsystem through a single dependency. The actual functionality lives in:
//!
//! * [`obs`] — query-level telemetry: spans and trace sinks,
//! * [`rtl`] — word-level RTL intermediate representation,
//! * [`sat`] — CDCL SAT solver,
//! * [`sim`] — cycle-accurate simulator,
//! * [`bmc`] — bit-blasting and bounded model checking from a symbolic
//!   initial state,
//! * [`soc`] — the MiniRV SoC generator (RocketChip stand-in) with its
//!   vulnerability knobs,
//! * [`upec`] — Unique Program Execution Checking: the paper's contribution.
//!
//! # Example
//!
//! ```
//! use upec_repro::soc::{SocConfig, SocVariant};
//!
//! let config = SocConfig::new(SocVariant::Secure);
//! assert!(config.variant().is_secure());
//! ```

pub use bmc;
pub use obs;
pub use rtl;
pub use sat;
pub use sim;
pub use soc;
pub use upec;
