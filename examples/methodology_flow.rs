//! The iterative UPEC methodology of paper Fig. 5, narrated step by step on
//! the original (secure) design with the secret in the cache.
//!
//! ```text
//! cargo run --release --example methodology_flow
//! ```

use soc::{SocConfig, SocVariant};
use upec::{
    full_commitment, prove_alert_closure, AlertKind, IncrementalSession, SecretScenario, UpecModel,
};

fn main() {
    let config = SocConfig::new(SocVariant::Secure)
        .with_registers(4)
        .with_cache_lines(2)
        .with_miss_latency(1)
        .with_store_latency(1);
    let model = UpecModel::new(&config, SecretScenario::InCache);
    let window = 3;

    println!(
        "UPEC methodology on the {} design, {}",
        config.variant().name(),
        model.scenario().label()
    );
    println!(
        "miter: {} register pairs, window k = {}\n",
        model.pairs().len(),
        window
    );

    // One session serves every iteration: only the commitment shrinks.
    let mut session = IncrementalSession::new(&model);
    let mut commitment = full_commitment(&model);
    let mut collected = std::collections::BTreeSet::new();
    for iteration in 1.. {
        println!(
            "iteration {iteration}: proving uniqueness of {} state bits ...",
            commitment.len()
        );
        match session.check_bound(window, &commitment) {
            outcome if outcome.is_proven() => {
                println!("  -> property PROVEN ({:?})", outcome.stats().runtime);
                break;
            }
            outcome => {
                let alert = outcome.alert().expect("violated").clone();
                match alert.kind {
                    AlertKind::LAlert => {
                        println!(
                            "  -> L-ALERT: architectural registers {:?} depend on the secret",
                            alert.architectural_differences
                        );
                        println!("  The design is NOT secure.");
                        return;
                    }
                    AlertKind::PAlert => {
                        println!(
                            "  -> P-alert: secret propagated into {:?} ({:?})",
                            alert.microarchitectural_differences,
                            outcome.stats().runtime
                        );
                        for reg in &alert.microarchitectural_differences {
                            commitment.remove(reg);
                            collected.insert(reg.clone());
                        }
                    }
                }
            }
        }
    }

    println!("\ncollected P-alert registers: {collected:?}");
    println!("running the inductive closure proof (Sec. VI) ...");
    let closure = prove_alert_closure(&model, &collected);
    println!("closure proof: {closure:?}");
    assert!(closure.is_closed());
    println!("\nThe propagated secret can never reach architectural state:");
    println!("the design is secure against covert channel attacks.");
}
