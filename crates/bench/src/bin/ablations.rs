//! Ablation studies for three design decisions of the reproduction:
//!
//! * **symbolic initial state (IPC) vs. reset-state BMC** — reset-state BMC
//!   misses the Orc vulnerability at windows where IPC finds it, because the
//!   attack state (pending write + transient load) takes many cycles to set
//!   up from reset;
//! * **window length scaling** — CNF size and solver effort as a function of
//!   the unrolling depth (capped at k=3: the secure design's k=4 proof runs
//!   for more than ten minutes);
//! * **design size scaling** — proof cost as a function of cache lines and
//!   register count.
//!
//! ```text
//! cargo run --release -p bench --bin ablations
//! ```

use bench::secs;
use bmc::UnrollOptions;
use soc::SocVariant;
use upec::scenarios::{self, Geometry};
use upec::{architectural_commitment, IncrementalSession, SecretScenario, UpecModel};

fn main() {
    println!("Ablation 1 — symbolic initial state (IPC) vs reset-state BMC, Orc variant");
    println!(
        "{:>8} {:>18} {:>18}",
        "window", "IPC (any state)", "BMC (from reset)"
    );
    let model = scenarios::by_id("orc")
        .expect("registered scenario")
        .build_model();
    let commitment = architectural_commitment(&model);
    // Only the verdicts are printed, so each column walks one session.
    let mut ipc_session = IncrementalSession::new(&model);
    let mut bmc_session =
        IncrementalSession::with_options(&model, UnrollOptions::from_reset_state());
    for k in 1..=6 {
        let ipc = ipc_session.check_bound(k, &commitment);
        let bmc = bmc_session.check_bound(k, &commitment);
        let describe = |o: &upec::UpecOutcome| {
            if o.alert().is_some() {
                "L-alert".to_string()
            } else if o.is_proven() {
                "no alert".to_string()
            } else {
                "unknown".to_string()
            }
        };
        println!("{k:>8} {:>18} {:>18}", describe(&ipc), describe(&bmc));
    }
    println!("(From reset the cache is empty and the secret cannot be cached, so the bounded");
    println!("reset-state check never observes the covert channel at these depths.)\n");

    println!("Ablation 2 — proof effort vs window length, secure design, D in cache");
    println!("(k <= 3: the k=4 proof runs for more than ten minutes)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "window", "variables", "clauses", "conflicts", "runtime"
    );
    let model = scenarios::by_id("secure-cached")
        .expect("registered scenario")
        .build_model();
    let commitment = architectural_commitment(&model);
    for k in 1..=3 {
        // A fresh session per window, so each row is that window's own cost.
        let outcome = IncrementalSession::new(&model).check_bound(k, &commitment);
        let s = outcome.stats();
        println!(
            "{k:>8} {:>12} {:>12} {:>12} {:>12}",
            s.variables,
            s.clauses,
            s.conflicts,
            secs(s.runtime)
        );
    }
    println!();

    println!("Ablation 3 — proof effort vs design size (window 2, secure design)");
    println!(
        "{:>22} {:>12} {:>12} {:>12}",
        "configuration", "variables", "clauses", "runtime"
    );
    for (regs, lines) in [(4u32, 2u32), (4, 4), (8, 4), (8, 8)] {
        let geometry = Geometry {
            registers: regs,
            cache_lines: lines,
            ..Geometry::formal_default()
        };
        let config = geometry.apply(SocVariant::Secure);
        let model = UpecModel::new(&config, SecretScenario::InCache);
        let outcome =
            IncrementalSession::new(&model).check_bound(2, &architectural_commitment(&model));
        let s = outcome.stats();
        println!(
            "{:>22} {:>12} {:>12} {:>12}",
            format!("{regs} regs / {lines} lines"),
            s.variables,
            s.clauses,
            secs(s.runtime)
        );
    }
    println!("\n(The paper's scalability discussion — 'feasible k' and future compositional");
    println!("UPEC — corresponds to the growth visible in ablations 2 and 3.)");
}
