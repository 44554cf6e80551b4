//! # `bench` — the paper-artifact binaries
//!
//! Binaries that regenerate the paper's tables and figures (Table I,
//! Table II, Fig. 1 and Fig. 2 as simulated attacks), the ablation studies,
//! the registry sweep (`engine`) and the alert debugger (`debug_alert`).
//! The formal findings that are registry scenarios have `engine` as their
//! one driver: `engine pmp-lock` is the PMP leak of Sec. VII-C and
//! `engine cache-footprint` is Fig. 1 as a UPEC check.
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

/// Prints `problem` and the binary's `usage` line on stderr and exits with
/// status 2, the status of a malformed command line.
pub fn usage_error(usage: &str, problem: &str) -> ! {
    eprintln!("{problem}\nusage: {usage}");
    std::process::exit(2)
}

/// The registry instance named `id`: a base scenario (`orc`) or a geometry
/// family member (`orc@r4c4m1s1`). An unknown id lists the registered ones
/// and exits through [`usage_error`].
pub fn scenario_or_exit(id: &str, usage: &str) -> upec::scenarios::ScenarioInstance {
    upec::scenarios::instance_by_id(id).unwrap_or_else(|| {
        let known: Vec<String> = upec::scenarios::instances()
            .iter()
            .map(|s| format!("  {:<26} {}", s.id(), s.title))
            .collect();
        usage_error(
            usage,
            &format!(
                "unknown scenario `{id}`; registered ids:\n{}",
                known.join("\n")
            ),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::scenario_or_exit;

    #[test]
    fn scenario_ids_resolve_to_base_scenarios_and_family_members() {
        assert_eq!(scenario_or_exit("orc", "usage").config.cache_lines, 2);
        let member = scenario_or_exit("orc@r4c4m1s1", "usage");
        assert_eq!(member.id(), "orc@r4c4m1s1");
        assert_eq!(member.config.cache_lines, 4);
    }
}
