#!/usr/bin/env bash
# The one command of the regemu benchmark. Builds the package from source
# (release, offline) and hands every argument to it:
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
#   run.sh [all | aa | <name>] [--smoke] [--seed <n>] [--out <dir>]   the suite
#
# Run it from the repository root or from anywhere: paths are resolved from
# this file's location. `run.sh --help` lists the modes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to standard error only: a run's standard output ends
# with its result line and nothing else may follow it.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2

export REGEMU_BENCH_OUT="${REGEMU_BENCH_OUT:-$here/out}"
export REGEMU_BENCH_RUSTC="${REGEMU_BENCH_RUSTC:-$(rustc -V 2>/dev/null || echo unknown)}"
export REGEMU_BENCH_COMMIT="${REGEMU_BENCH_COMMIT:-$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)}"
exec "$target/release/regemu-benchmark" "$@"
