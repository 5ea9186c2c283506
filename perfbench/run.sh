#!/usr/bin/env bash
# Builds the benchmark and the shipped `ctfl_server` from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build). The last
# line of stdout is the result object; see perfbench/README.md.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path Cargo.toml --bin ctfl_server 1>&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server-bin "$CARGO_TARGET_DIR/release/ctfl_server" "$@"
