#!/usr/bin/env bash
# Builds the benchmark and the grefar-served daemon from this checkout, then
# runs one workload:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of stdout is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p grefar-served --bin grefar-served >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
exec "$target/release/grefar-perfbench" \
    --daemon "$target/release/grefar-served" \
    --workdir "$target/perfbench-work" "$@"
