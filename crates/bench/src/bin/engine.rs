//! Runs the parallel incremental UPEC engine over the scenario registry and
//! prints the aggregated report — the "sweep everything" entry point.
//!
//! ```text
//! cargo run --release -p bench --bin engine [-- --threads N] [id ...]
//! ```
//!
//! Without arguments the 11 base scenarios are scanned. Ids of any registry
//! instance (e.g. `orc pmp-lock`, or a geometry family member such as
//! `orc@r4c4m1s1`) restrict the sweep; `pmp-lock` (the PMP leak of
//! Sec. VII-C) and `cache-footprint` (Fig. 1 as a UPEC check) have this
//! binary as their driver. The exit code is 1 when a verdict misses its
//! registered expectation, and 2 on a malformed command line (a thread
//! count that does not parse, or an unknown id), which is rejected before
//! any model is built.

use bench::{scenario_or_exit, usage_error};
use std::time::Instant;
use upec::scenarios::{self, ScenarioInstance};
use upec::{EngineOptions, UpecEngine};

const USAGE: &str = "engine [--threads N] [id ...]";

fn main() {
    let mut threads: Option<usize> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let count = args.next().and_then(|v| v.parse().ok());
                threads =
                    Some(count.unwrap_or_else(|| usage_error(USAGE, "--threads takes a count")));
            }
            other => ids.push(other.to_string()),
        }
    }

    let instances: Vec<ScenarioInstance> = if ids.is_empty() {
        scenarios::registry()
    } else {
        ids.iter().map(|id| scenario_or_exit(id, USAGE)).collect()
    };

    let mut options = EngineOptions::new();
    if let Some(t) = threads {
        options = options.with_threads(t);
    }
    println!(
        "UPEC engine: {} scenarios, {} threads\n",
        instances.len(),
        options.threads
    );
    println!(
        "{:<26} {:<34} {:<30} {:>9}",
        "id", "title", "paper ref", "windows"
    );
    for s in &instances {
        println!(
            "{:<26} {:<34} {:<30} {:>4}..={}",
            s.id(),
            s.title,
            s.paper_ref,
            s.start_window,
            s.max_window
        );
    }
    println!();

    let start = Instant::now();
    let results = UpecEngine::new(options).run_instances(instances);
    for r in &results {
        println!("{}", r.summary());
    }
    println!(
        "{} scenarios in {:.2?}, {} total conflicts",
        results.len(),
        start.elapsed(),
        results.iter().map(|r| r.conflicts).sum::<u64>()
    );
    let mismatches: Vec<_> = results
        .iter()
        .filter(|r| !r.matches_expectation())
        .collect();
    if mismatches.is_empty() {
        println!("\nAll scenarios match their registered expectations.");
    } else {
        println!("\nWARNING: some scenarios deviate from their registered expectations:");
        for r in mismatches {
            println!(
                "  {:<26} expected {:?}, got {:?}",
                r.instance.id(),
                r.instance.expected,
                r.verdict
            );
        }
        std::process::exit(1);
    }
}
