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
use upec::{prove_alert_closure, run_methodology, ClosureOutcome, MethodologyReport, Verdict};

/// Conflict budget of each column's methodology run.
const CONFLICT_BUDGET: u64 = 2_000_000;

fn main() {
    println!("Table I — UPEC methodology experiments (original design)");
    println!("paper reference: d_MEM 5/34, feasible k 9/34, 20/0 P-alerts, 23/0 registers\n");
    println!("{:<38} {:>12} {:>14}", "", "D cached", "D not cached");

    let mut reports = Vec::new();
    for id in ["secure-cached", "secure-uncached"] {
        let scenario = scenarios::by_id(id).expect("registered scenario");
        let model = scenario.build_model();
        let d_mem = model.d_mem();
        // "Feasible k": the largest window we attempt within a conflict
        // budget; with the reduced design this is simply d_MEM.
        let options = UnrollOptions::default().with_budget(Budget::conflicts(CONFLICT_BUDGET));
        let report = run_methodology(&model, d_mem, options);
        let closure = if report.verdict == Verdict::Secure && !report.p_alert_registers.is_empty() {
            Some(prove_alert_closure(&model, &report.p_alert_registers).1)
        } else {
            None
        };
        reports.push((d_mem, report, closure));
    }

    let mut rows: Vec<(String, String, String)> = Vec::new();
    let value = |f: &dyn Fn(usize) -> String| (f(0), f(1));
    let (a, b) = value(&|i| reports[i].0.to_string());
    rows.push(("d_MEM (window length)".into(), a, b));
    let (a, b) = value(&|i| reports[i].1.window.to_string());
    rows.push(("feasible k".into(), a, b));
    let (a, b) = value(&|i| reports[i].1.p_alert_count().to_string());
    rows.push(("# of P-alerts".into(), a, b));
    let (a, b) = value(&|i| reports[i].1.p_alert_registers.len().to_string());
    rows.push(("# of RTL registers causing P-alerts".into(), a, b));
    let (a, b) = value(&|i| secs(reports[i].1.proof_runtime));
    rows.push(("proof runtime".into(), a, b));
    let (a, b) = value(&|i| {
        reports[i]
            .2
            .as_ref()
            .map(|c| match c {
                ClosureOutcome::Closed { runtime } => secs(*runtime),
                other => format!("{other:?}"),
            })
            .unwrap_or_else(|| "n/a".into())
    });
    rows.push(("inductive proof runtime".into(), a, b));
    let (a, b) = value(&|i| format!("{:?}", reports[i].1.verdict));
    rows.push(("verdict".into(), a, b));

    for (label, cached, uncached) in rows {
        println!("{label:<38} {cached:>12} {uncached:>14}");
    }
    println!();
    for (_, report, closure) in &reports {
        println!("{}", report.summary());
        if let Some(c) = closure {
            println!("  inductive closure: {c:?}");
        }
        if !report.p_alert_registers.is_empty() {
            println!("  P-alert registers: {:?}", report.p_alert_registers);
        }
    }
    // The paper's shape: the cached case yields P-alerts but no L-alert and
    // closes by the inductive proof; the uncached case is proven with zero
    // P-alerts. Claim each half only when this run's verdicts show it.
    println!();
    let [(cached_d_mem, cached, closure), (uncached_d_mem, uncached, _)] = &reports[..] else {
        unreachable!("two columns")
    };
    let closed = matches!(closure, Some(ClosureOutcome::Closed { .. }));
    if cached.verdict == Verdict::Secure && cached.p_alert_count() > 0 && closed {
        println!("Shape check vs the paper: the cached case yields P-alerts but no L-alert and");
        println!("closes by the inductive proof.");
    } else {
        report_mismatch("cached", *cached_d_mem, cached);
    }
    if uncached.verdict == Verdict::Secure && uncached.p_alert_count() == 0 {
        println!("Shape check vs the paper: the uncached case is proven with zero P-alerts.");
    } else {
        report_mismatch("uncached", *uncached_d_mem, uncached);
    }
}

/// Says why a column does not show the paper's shape.
fn report_mismatch(column: &str, d_mem: usize, report: &MethodologyReport) {
    if report.verdict == Verdict::Inconclusive {
        println!(
            "The {column} case was inconclusive at d_MEM {d_mem} under the \
             {CONFLICT_BUDGET}-conflict budget: no shape check."
        );
    } else {
        println!(
            "The {column} case does not show the paper's shape: {}",
            report.summary()
        );
    }
}
