#!/usr/bin/env bash
# Smoke run of the repo benchmark for CI: simulated windows / 20, one
# timed run and one traced run per workload, capture capped at 100 K
# events. Checks that every declared metric is present and finite and
# that BENCHMARK.json matches the benchmark's own catalogue. Exits
# non-zero on any problem. Under a minute once built.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke "$@"
