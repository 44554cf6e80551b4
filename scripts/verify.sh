#!/usr/bin/env bash
# Repository verification: formatting, lints, the tier-1 build/test gate,
# the release-mode workspace test suites, the fast fault-injection
# differential and the bench smoke gates.
#
# Usage: scripts/verify.sh [--full]
#
# Keep this script in sync with the README's "Tests and verification"
# section. The tier-1 gate is the same command CI runs:
#   cargo build --release && cargo test -q
#
# --full additionally runs the release-mode `--ignored` acceptance sweeps
# (full-registry simplification differential, full instance-registry scan,
# default-seed fuzz-witness reproduction, full clause-sharing differential,
# full certified-verdict sweep, fault-injection differential sweep) —
# several minutes of SAT solving.
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

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (broken intra-doc links fail here)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests: cargo test -q --workspace --release"
cargo test -q --workspace --release

echo "==> fault-injection differential (--features faults, release)"
# Deterministic faults (forced budget exhaustion, spurious cancellation,
# an abort between restart boundaries) are armed at SplitMix64-chosen
# points inside engine queries; every faulted query must either reach the
# fault-free verdict or answer Unknown with an honest stop cause, and the
# session must resume to the exact fault-free verdict (docs/robustness.md).
cargo test --release -q -p upec --features faults --test fault_injection

echo "==> bench smoke: solver_stats --smoke (search + simplification verdict agreement, k=1 subset)"
# Fast gate: the default (adaptive simplification, all search features on),
# no_simplify and baseline-search (plain Luby loop — no EMA restarts,
# rephasing, chronological backtracking or vivification) solve paths must
# agree on every verdict of the smoke subset, so solver performance work can
# never silently flip a verdict. Exits non-zero on any mismatch; writes no
# JSON.
cargo run --release -q -p bench --bin solver_stats -- --smoke

echo "==> bench smoke: trace_report --smoke (telemetry trace, k=1 query)"
# Fast gate for the obs telemetry layer: one traced k=1 query through the
# real JSONL sink — every emitted line must parse, the root span's verdict
# attribute must match the engine's verdict, and the per-phase durations
# must sum to within tolerance of the query wall time. Exits non-zero on
# any failure; writes no tracked JSON.
cargo run --release -q -p bench --bin trace_report -- --smoke

echo "==> bench smoke: fuzz_stats --smoke (bounded deterministic mining run)"
# Fast gate for the fuzz-mining pipeline: a fixed-seed, wall-clock-capped
# run (60 programs max) asserting the soundness invariants — zero
# secure-design divergences, zero RTL/golden co-simulation mismatches, at least
# one witness, a minimizer round trip on every witness, and byte-identical
# witnesses on a same-seed rerun. Exits non-zero on any violation; writes
# no JSON.
cargo run --release -q -p bench --bin fuzz_stats -- --smoke

echo "==> bench smoke: cert_stats --smoke (certified verdicts re-checked, k=1 subset)"
# Fast gate for checkable verdicts (docs/certificates.md): three k=1
# queries are solved with DRAT logging on, packaged as certificates
# (trimmed refutation or replayable witness), and re-checked by the
# independent checkers. Verdicts must agree with the plain solve path and
# every certificate must check. Exits non-zero otherwise; writes no JSON.
cargo run --release -q -p bench --bin cert_stats -- --smoke

if [ "$full" -eq 1 ]; then
  echo "==> full: simplification differential over the whole registry (--ignored, release)"
  cargo test --release -q -p upec --test simplify_differential -- --ignored

  echo "==> full: instance-registry sweep + fuzz-witness reproduction (--ignored, release)"
  cargo test --release -q -p upec --test scenario_instances -- --ignored

  echo "==> full: clause-sharing differential over the whole instance registry (--ignored, release)"
  cargo test --release -q -p upec --test clause_sharing_differential -- --ignored

  echo "==> full: certified registry sweep (--ignored, release)"
  cargo test --release -q -p upec --test certificates -- --ignored

  echo "==> full: fault-injection differential sweep (--features faults, --ignored, release)"
  cargo test --release -q -p upec --features faults --test fault_injection -- --ignored
fi

echo "verify.sh: all checks passed"
