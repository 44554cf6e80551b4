//! Command-line entry point of the UPEC benchmark.
//!
//! ```text
//! cargo run --release --manifest-path upecbench/Cargo.toml -- \
//!     --workload sweep|certify|mine --seed N --seconds S --trace 0|1
//! ```
//!
//! The workload is set up (resolving the pinned inputs, building the models
//! certificates are checked against, building the options) and runs
//! untraced, pass after pass, for about `--seconds` (`mine` first runs the
//! miner itself once, then times its passes on two workers); with
//! `--trace 1` it runs one untraced pass and one under an in-memory trace
//! sink. `wall_s` sums each unit's fastest time over the passes. The set-up
//! is timed again in bursts between passes and in the time left after the
//! last one, and `setup_s` is the median.
//! Progress goes to stderr. The second-to-last
//! line of stdout is a report stamped with commit, `nproc`, compiler,
//! profile and seed; the last line is the result:
//!
//! ```text
//! {"correct": true, "attempted": 27, "failed": 0, "metrics": {"wall_s": {"value": 8.9, "unit": "s"}, ...}}
//! ```
//!
//! Untraced the metrics are the end-to-end ones, traced the per-layer ones.
//! The exit code is 0 when every correctness gate passed, 1 when one
//! failed, and 2 on a usage or set-up error.

use bench::json::{validate, JsonObject};
use std::process::ExitCode;
use upecbench::{median, run, setup, stamp, Outcome, Workload, END_TO_END, PER_LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn metrics_json(outcome: &Outcome, catalog: &[(&str, &str)]) -> String {
    let mut metrics = JsonObject::new();
    for &(name, unit) in catalog {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        let entry = JsonObject::new()
            .field_raw("value", &format!("{value}"))
            .field_str("unit", unit)
            .finish();
        metrics = metrics.field_raw(name, &entry);
    }
    metrics.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "upecbench: {e}\nusage: upecbench --workload sweep|certify|mine --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let input = match setup(args.workload) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("upecbench: set-up of `{name}` failed: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("upecbench: {name} set up; measuring for {}s", args.seconds);
    let outcome = match run(args.workload, &input, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("upecbench: timing the set-up of `{name}` failed: {e}");
            return ExitCode::from(2);
        }
    };
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }

    let (tail_value, tail_pct) = upecbench::tail(&outcome.queries);
    let mut report = JsonObject::new().field_str("workload", name);
    for (key, value) in stamp(args.seed) {
        report = report.field_str(key, &value);
    }
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| format!("\"{}\"", bench::json::escape(f)))
        .collect();
    let report = report
        .field_u64("trace", u64::from(args.trace))
        .field_raw("pass_walls_s", &format!("{:?}", outcome.pass_walls))
        .field_f64(
            "failed_frac",
            outcome.failed() as f64 / outcome.attempted.max(1) as f64,
            6,
        )
        .field_u64("conflicts", outcome.counters.conflicts)
        .field_usize("clauses_peak", outcome.counters.clauses_peak)
        .field_usize("divergent_runs", outcome.counters.divergent_runs)
        .field_usize("query_samples", outcome.queries.len())
        .field_f64("query_p50_s", median(&outcome.queries), 6)
        .field_f64("query_tail_s", tail_value, 6)
        .field_f64("query_tail_percentile", tail_pct, 1)
        .field_raw("failures", &format!("[{}]", failures.join(", ")))
        .finish();

    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = JsonObject::new()
        .field_raw(
            "correct",
            if outcome.failures.is_empty() {
                "true"
            } else {
                "false"
            },
        )
        .field_u64("attempted", outcome.attempted)
        .field_u64("failed", outcome.failed())
        .field_raw("metrics", &metrics_json(&outcome, catalog))
        .finish();
    for line in [&report, &result] {
        if let Err(e) = validate(line) {
            eprintln!("upecbench: emitted invalid JSON ({e}): {line}");
            return ExitCode::from(2);
        }
    }
    println!("{report}");
    println!("{result}");
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
