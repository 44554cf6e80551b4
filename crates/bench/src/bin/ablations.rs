//! Ablation studies for two scaling questions of the reproduction:
//!
//! * **window length scaling** — CNF size and solver effort as a function of
//!   the unrolling depth (capped at k=3: the secure design's k=4 proof runs
//!   for more than ten minutes);
//! * **design size scaling** — proof cost as a function of cache lines and
//!   register count.
//!
//! There is no reset-state ablation. A UPEC query is posed from a symbolic
//! state under premises (`secret_data_protected`, the secret's cache line
//! present or absent, the side constraints of Fig. 4) that cannot hold at
//! reset — the PMP registers alone reset to zero — so a reset-state query
//! is vacuous: it would answer "no alert" for any design.
//!
//! ```text
//! cargo run --release -p bench --bin ablations
//! ```

use bench::secs;
use soc::{SocConfig, SocVariant};
use upec::scenarios;
use upec::{architectural_commitment, IncrementalSession, SecretScenario, UpecModel};

fn main() {
    println!("Ablation 1 — proof effort vs window length, secure design, D in cache");
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

    println!("Ablation 2 — proof effort vs design size (window 2, secure design)");
    println!(
        "{:>22} {:>12} {:>12} {:>12}",
        "configuration", "variables", "clauses", "runtime"
    );
    for (regs, lines) in [(4u32, 2u32), (4, 4), (8, 4), (8, 8)] {
        let config = SocConfig::formal(SocVariant::Secure)
            .with_registers(regs)
            .with_cache_lines(lines);
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
    println!("UPEC — corresponds to the growth visible in both ablations.)");
}
