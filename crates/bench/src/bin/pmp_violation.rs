//! Reproduces the finding of paper Sec. VII-C: UPEC also uncovers the ISA
//! compliance violation in the physical-memory-protection (PMP) locking
//! logic — a "main channel" leak where the attacker gains direct access to
//! the secret.
//!
//! ```text
//! cargo run --release -p bench --bin pmp_violation
//! ```

use bench::secs;
use upec::{architectural_commitment, scenarios, IncrementalSession};

fn main() {
    println!("Sec. VII-C — PMP TOR-lock violation\n");
    let pmp = scenarios::by_id("pmp-lock").expect("registered scenario");
    for spec in [
        pmp,
        scenarios::by_id("secure-arch-only").expect("registered scenario"),
    ] {
        let model = spec.build_model();
        let commitment = architectural_commitment(&model);
        let mut session = IncrementalSession::new(&model);
        let mut verdict = "no L-alert up to the window bound".to_string();
        let mut runtime = std::time::Duration::ZERO;
        // The shortest leaking scenario (move the locked base, mret, load the
        // secret) spans about seven cycles; the registry's window range for
        // the pmp-lock scenario starts the search there.
        for k in pmp.start_window..=pmp.max_window {
            let outcome = session.check_bound(k, &commitment);
            runtime += outcome.stats().runtime;
            if let Some(alert) = outcome.alert() {
                verdict = format!(
                    "L-alert at window {k}: architectural registers {:?} receive secret-dependent values",
                    alert.architectural_differences
                );
                break;
            }
        }
        println!(
            "{:>14}: {verdict} ({} total solver time)",
            spec.variant.name(),
            secs(runtime)
        );
    }
    println!("\nShape check vs the paper: the buggy lock implementation lets privileged code");
    println!("move the base of a locked region, after which the 'protected' secret leaks");
    println!("directly into an architectural register; the correct implementation does not.");
}
