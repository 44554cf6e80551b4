//! The command lines of `engine` and `debug_alert`: a value that does not
//! parse is rejected with the usage line on stderr and exit status 2 before
//! any model is built, instead of silently running a different query. Exit
//! status 1 stays reserved for a missed expectation or a lost L-alert.

use std::process::Command;

/// Runs `binary` with `args` and asserts the usage-error contract.
fn assert_usage_error(binary: &str, args: &[&str], usage: &str) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?}: expected exit status 2\nstderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("usage: {usage}")),
        "{args:?}: no usage line on stderr: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "{args:?}: nothing may run: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn engine_rejects_malformed_arguments() {
    let engine = env!("CARGO_BIN_EXE_engine");
    let usage = "engine [--threads N] [id ...]";
    assert_usage_error(engine, &["--threads", "x", "secure-arch-only"], usage);
    assert_usage_error(engine, &["secure-arch-only", "--threads"], usage);
    assert_usage_error(engine, &["no-such-scenario"], usage);
}

#[test]
fn debug_alert_rejects_malformed_arguments() {
    let debug_alert = env!("CARGO_BIN_EXE_debug_alert");
    let usage = "debug_alert [scenario] [window]";
    assert_usage_error(debug_alert, &["orc", "3x"], usage);
    assert_usage_error(debug_alert, &["orc", "2", "extra"], usage);
    assert_usage_error(debug_alert, &["no-such-scenario"], usage);
}
