#!/usr/bin/env bash
# Builds the benchmark and the tpcp-serve binary from source, then runs
# the benchmark with every argument passed through. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "perfbench: run from the root of a tpcp checkout (no program source here)" >&2
    exit 2
fi
# One target directory for both builds, relative to the checkout root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p tpcp-serve --bin tpcp-serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --serve-bin "$target/release/tpcp-serve" "$@"
