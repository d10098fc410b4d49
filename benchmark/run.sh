#!/usr/bin/env bash
# Build, then `all` and `trace` in one step: ./benchmark/run.sh [seed]
# Writes benchmark/out/results.json and benchmark/out/trace.json and
# prints the wall time of the whole run.
set -euo pipefail
seed="${1:-1}"
manifest="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/Cargo.toml"
started=$(date +%s)
cargo build --release --offline --manifest-path "$manifest"
status=0
cargo run --release --offline --quiet --manifest-path "$manifest" -- all --seed "$seed" || status=$?
cargo run --release --offline --quiet --manifest-path "$manifest" -- trace --seed "$seed" || status=$?
echo "whole run: $(( $(date +%s) - started )) s"
exit "$status"
