//! Regenerates **Table I** of the paper: UPEC methodology experiments on the
//! original (secure) design, for the two scenarios "D in cache" and "D not in
//! cache".
//!
//! ```text
//! cargo run --release -p bench --bin table1
//! ```

use bench::secs;
use bmc::UnrollOptions;
use sat::Budget;
use upec::scenarios;
use upec::{prove_alert_closure, run_methodology, Verdict};

fn main() {
    println!("Table I — UPEC methodology experiments (original design)");
    println!("paper reference: d_MEM 5/34, feasible k 9/34, 20/0 P-alerts, 23/0 registers\n");
    println!("{:<38} {:>12} {:>14}", "", "D cached", "D not cached");

    let mut reports = Vec::new();
    for id in ["secure-cached", "secure-uncached"] {
        let spec = scenarios::by_id(id).expect("registered scenario");
        let model = spec.build_model();
        let d_mem = model.d_mem();
        // "Feasible k": the largest window we attempt within a conflict
        // budget; with the reduced design this is simply d_MEM.
        let options = UnrollOptions::default().with_budget(Budget::conflicts(2_000_000));
        let report = run_methodology(&model, d_mem, options);
        let closure = if report.verdict == Verdict::Secure && !report.p_alert_registers.is_empty() {
            Some(prove_alert_closure(&model, &report.p_alert_registers))
        } else {
            None
        };
        reports.push((spec.secret, d_mem, report, closure));
    }

    let mut rows: Vec<(String, String, String)> = Vec::new();
    let value = |f: &dyn Fn(usize) -> String| (f(0), f(1));
    let (a, b) = value(&|i| reports[i].1.to_string());
    rows.push(("d_MEM (window length)".into(), a, b));
    let (a, b) = value(&|i| reports[i].2.window.to_string());
    rows.push(("feasible k".into(), a, b));
    let (a, b) = value(&|i| reports[i].2.p_alert_count().to_string());
    rows.push(("# of P-alerts".into(), a, b));
    let (a, b) = value(&|i| reports[i].2.p_alert_registers.len().to_string());
    rows.push(("# of RTL registers causing P-alerts".into(), a, b));
    let (a, b) = value(&|i| secs(reports[i].2.proof_runtime));
    rows.push(("proof runtime".into(), a, b));
    let (a, b) = value(&|i| {
        reports[i]
            .3
            .as_ref()
            .map(|c| match c {
                upec::ClosureOutcome::Closed { runtime } => secs(*runtime),
                other => format!("{other:?}"),
            })
            .unwrap_or_else(|| "n/a".into())
    });
    rows.push(("inductive proof runtime".into(), a, b));
    let (a, b) = value(&|i| format!("{:?}", reports[i].2.verdict));
    rows.push(("verdict".into(), a, b));

    for (label, cached, uncached) in rows {
        println!("{label:<38} {cached:>12} {uncached:>14}");
    }
    println!();
    for (scenario, _, report, closure) in &reports {
        println!("{}: {}", scenario.label(), report.summary());
        if let Some(c) = closure {
            println!("  inductive closure: {c:?}");
        }
        if !report.p_alert_registers.is_empty() {
            println!("  P-alert registers: {:?}", report.p_alert_registers);
        }
    }
    println!("\nShape check vs the paper: the cached case yields P-alerts but no L-alert and");
    println!("needs the inductive closure proof; the uncached case is proven with zero P-alerts.");
}
