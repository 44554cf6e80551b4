#!/usr/bin/env bash
# Repository verification: formatting, lints, the tier-1 build/test gate,
# the release-mode workspace test suites, the fast fault-injection
# differential and the benchmark's contract tests.
#
# Usage: scripts/verify.sh [--full]
#
# Keep this script in sync with the README's "Tests and verification"
# section. The tier-1 gate is the same command CI runs:
#   cargo build --release && cargo test -q
#
# --full additionally runs the release-mode `--ignored` acceptance sweeps
# (compiled-vs-eager encoding on the registry's orc query, full-registry
# simplification differential, full instance-registry scan, default-seed
# fuzz-witness reproduction, full clause-sharing differential, full
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

echo "==> benchmark contract tests (upecbench, release)"
# The one benchmark is a package of its own outside the workspace; its
# contract tests pin the metric catalogue against BENCHMARK.json, the traced
# sweep's phase sum and the mine replay.
cargo test --release -q --offline --manifest-path upecbench/Cargo.toml

if [ "$full" -eq 1 ]; then
  echo "==> full: compiled vs eager encoding on the registry's orc query (--ignored, release)"
  cargo test --release -q -p upec --test compiler_regressions -- --ignored orc_verdict_is_identical_under_both_encodings

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
