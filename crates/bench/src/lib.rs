//! # `bench` — the paper-artifact binaries
//!
//! Binaries that regenerate the paper's tables and figures (Table I,
//! Table II, Fig. 1, Fig. 2, the PMP finding of Sec. VII-C), the ablation
//! studies, the registry sweep (`engine`) and the alert debugger
//! (`debug_alert`).
//!
//! All workloads are driven from the shared scenario registry in
//! [`upec::scenarios`] — this crate only adds timing, formatting and
//! command-line entry points. The repository's one benchmark, `upecbench`
//! (a package of its own), imports [`json`] from here.

#![warn(missing_docs)]

pub mod json;

/// Formats a duration in seconds with two decimals (for table rows).
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}
