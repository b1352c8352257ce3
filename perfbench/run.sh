#!/usr/bin/env bash
# Builds the benchmark (and the fleet binaries it spawns) from source,
# then runs one workload. Run from the repository root:
#
#   ENGINE_THREADS=2 bash perfbench/run.sh --workload queko-flat --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
