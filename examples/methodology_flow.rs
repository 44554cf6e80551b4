//! The iterative UPEC methodology of paper Fig. 5, narrated step by step on
//! the original (secure) design with the secret in the cache (the
//! registry's `secure-cached` scenario).
//!
//! ```text
//! cargo run --release --example methodology_flow
//! ```

use bmc::UnrollOptions;
use upec::{prove_alert_closure, run_methodology, scenarios, AlertKind, Verdict};

fn main() {
    let scenario = scenarios::by_id("secure-cached").expect("registered scenario");
    let model = scenario.build_model();
    let window = 3;

    println!(
        "UPEC methodology on the {} design, {}",
        scenario.config.variant().name(),
        model.scenario().label()
    );
    println!(
        "miter: {} register pairs, window k = {}\n",
        model.pairs().len(),
        window
    );

    // One session serves every iteration: only the commitment shrinks.
    let report = run_methodology(&model, window, UnrollOptions::default());
    for (iteration, alert) in report.alerts.iter().enumerate() {
        match alert.kind {
            AlertKind::LAlert => println!(
                "iteration {}: L-ALERT: architectural registers {:?} depend on the secret",
                iteration + 1,
                alert.architectural_differences
            ),
            AlertKind::PAlert => println!(
                "iteration {}: P-alert: secret propagated into {:?}",
                iteration + 1,
                alert.microarchitectural_differences
            ),
        }
    }
    if report.verdict == Verdict::Secure && report.iterations > report.alerts.len() {
        println!("iteration {}: property PROVEN", report.iterations);
    }
    println!(
        "\n{} iterations in {:.2?}: {:?}",
        report.iterations, report.proof_runtime, report.verdict
    );
    if report.verdict != Verdict::Secure {
        println!("The design is NOT secure.");
        return;
    }

    println!(
        "\ncollected P-alert registers: {:?}",
        report.p_alert_registers
    );
    println!("running the inductive closure proof (Sec. VI) ...");
    let (closed_set, closure) = prove_alert_closure(&model, &report.p_alert_registers);
    println!("closure proof: {closure:?}");
    println!("closed alert set: {closed_set:?}");
    assert!(closure.is_closed());
    println!("\nThe propagated secret can never reach architectural state:");
    println!("the design is secure against covert channel attacks.");
}
