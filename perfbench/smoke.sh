#!/bin/sh
# Smoke test of the benchmark: tiny inputs and op counts, both passes, every
# workload, in well under 30 s once built.  Exits non-zero when a check fails,
# a metric is missing, an exact figure does not repeat, or the unit tests
# fail.  Run from anywhere.
set -eu
cd "$(dirname "$0")"
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- run --smoke --traced "$@"
