#!/usr/bin/env bash
# Repository verification: formatting, lints, the tier-1 build/test gate,
# the `sat` suites in debug, the release-mode workspace test suites, the fast
# paper-artifact drivers, the fast fault-injection differential and the
# benchmark's contract tests.
#
# Clippy and rustdoc run twice: with default features, which lints the
# `cfg(not(feature = "faults"))` paths, and with `--all-features`, which
# lints and doc-checks the fault-injection hooks (`Unrolling::inject_fault`,
# `IncrementalSession::inject_fault`) and `crates/core/tests/fault_injection.rs`.
#
# Usage: scripts/verify.sh [--full]
#
# Keep this script in sync with the README's "Tests and verification"
# section. The tier-1 gate is the same command CI runs:
#   cargo build --release && cargo test -q
# Its umbrella tests include the schedule pin (for every distinct registry
# miter: the netlist's signal count, the scheduled-signal count and the
# compiled schedule's length, so any schedule change fails the gate), the
# encoding oracle: the compiled unrolling of
# every distinct registry miter checked against the word-level simulator,
# fresh and after CNF simplification, the non-vacuity gate (every distinct
# registry miter's premises are satisfiable), and the default session
# agreeing with a plain solve (UnrollOptions::with_simplify_trial(u64::MAX),
# a trial cap no query reaches) on pinned k=1 verdicts (tests/cross_layer.rs).
# The same test pins the conflicts, propagations and restarts of each of
# those k=1 queries, so a solver change that moves the search fails tier-1.
# The release workspace stage runs the same encoding oracle at k=3 and the
# non-vacuity gate at each miter's deepest registered window.
#
# The `sat` suites also run in debug, so the solver's `debug_assert!`s (the
# clause arena's among them) check database reduction, arena collection,
# vivification and simplifier rebuilds, which the tier-1 queries never
# reach; `search_trajectory.rs` pins the counters of a session that reaches
# all of them.
#
# The driver stage runs every paper-artifact driver that finishes within
# seconds, so none can rot unnoticed: the quickstart example, Fig. 1 and
# Fig. 2 (simulation), Table II, the engine on `pmp-lock` (Sec. VII-C) and
# `cache-footprint` (Fig. 1 as a UPEC check), and the alert debugger
# (`debug_alert`, which poses the `orc` query at window 2 on a
# proof-logging session and dumps the L-alert from its checked witness
# certificate). The engine exits 1 when a verdict misses its registered
# expectation, and `debug_alert` exits 1 when the L-alert is lost. `table1` stays ungated: both of
# its columns run for more than ten minutes.
#
# --full additionally runs the slow drivers (the methodology_flow example,
# about two minutes; the ablations, about 85 s) and the release-mode
# `--ignored` acceptance sweeps (the umbrella end-to-end methodology run,
# full-registry simplification differential (default sessions against
# plain solves), full per-miter walk differential (the one full-registry
# scan: every instance's verdict against its pin, and each instance
# scanned with its miter's other instances versus alone), full
# certified-verdict sweep, fault-injection differential sweep) — several
# minutes of SAT solving.
set -euo pipefail
cd "$(dirname "$0")/.."

full=0
for arg in "$@"; do
  case "$arg" in
    --full) full=1 ;;
    *) echo "unknown argument: $arg (expected --full)" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings (default features, then all features)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo doc -D warnings (broken intra-doc links fail here; default features, then all features)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --all-features --quiet

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> sat suites in debug: cargo test -q -p sat"
cargo test -q -p sat

echo "==> workspace tests: cargo test -q --workspace --release"
cargo test -q --workspace --release

echo "==> paper-artifact drivers (release)"
cargo run --release -q --example quickstart
cargo run --release -q -p bench --bin fig1_cache_footprint
cargo run --release -q -p bench --bin fig2_orc_attack
cargo run --release -q -p bench --bin table2
cargo run --release -q -p bench --bin engine -- --threads 1 pmp-lock cache-footprint
cargo run --release -q -p bench --bin debug_alert

echo "==> fault-injection differential (--features faults, release)"
# Deterministic faults (forced budget exhaustion, spurious cancellation,
# an abort between restart boundaries) are armed at SplitMix64-chosen
# points inside engine queries; every faulted query must either reach the
# fault-free verdict or answer Unknown with an honest stop cause, and the
# session must resume to the exact fault-free verdict (docs/robustness.md).
cargo test --release -q -p upec --features faults --test fault_injection

echo "==> benchmark contract tests (upecbench, release)"
# The one benchmark is a package of its own outside the workspace; its
# contract tests pin the metric catalogue against BENCHMARK.json, the traced
# sweep's phase sum and the mine replay.
cargo test --release -q --offline --manifest-path upecbench/Cargo.toml

if [ "$full" -eq 1 ]; then
  echo "==> full: slow paper-artifact drivers (release)"
  cargo run --release -q --example methodology_flow
  cargo run --release -q -p bench --bin ablations

  echo "==> full: end-to-end methodology over all design variants (--ignored, release)"
  cargo test --release -q --test end_to_end -- --ignored

  echo "==> full: simplification differential over the whole registry (--ignored, release)"
  cargo test --release -q -p upec --test simplify_differential -- --ignored

  echo "==> full: full instance-registry sweep and per-miter walk differential (--ignored, release)"
  cargo test --release -q -p upec --test miter_walk_differential -- --ignored

  echo "==> full: certified registry sweep (--ignored, release)"
  cargo test --release -q -p upec --test certificates -- --ignored

  echo "==> full: fault-injection differential sweep (--features faults, --ignored, release)"
  cargo test --release -q -p upec --features faults --test fault_injection -- --ignored
fi

echo "verify.sh: all checks passed"
