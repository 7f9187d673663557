#!/usr/bin/env bash
# Build the benchmark and run it. Arguments go to the binary unchanged:
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#   benchmark/run.sh compare BASE.json NEW.json
#
# The last line of a single-workload run is the one-line JSON result
# BENCHMARK.json's contract fixes; results land in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from; pin it here so the binary is found wherever that is.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

if [ "${1:-}" = "compare" ]; then
    exec "$target/release/ipa-benchmark" "$@"
fi
exec "$target/release/ipa-benchmark" --out "$here/out" "$@"
