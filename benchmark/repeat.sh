#!/usr/bin/env bash
# Repeatability harness: every workload as two interleaved sets (A B A B ...)
# of RUNS untraced runs, run k of either set on seed k. Prints, per metric,
# both set medians, their difference, each set's run-to-run spread and the
# bound; exits non-zero on any breach. Takes about RUNS x 4.5 minutes.
#
#   benchmark/repeat.sh [RUNS] [SECONDS]      (defaults: 5 runs, 30 s)
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
target="${CARGO_TARGET_DIR:-target}"
exec "$target/release/vbench-benchmark" repeat --runs "${1:-5}" --seconds "${2:-30}"
