#!/usr/bin/env bash
# Builds exion_bench (Release) from this checkout and runs it with the
# given arguments. The build goes to $CARGO_TARGET_DIR/exion_bench,
# default .bench_build/exion_bench, relative to the repository root;
# build output goes to stderr so the benchmark's result stays the last
# line of stdout.
#
#   bash bench/exion_bench/run.sh --workload mld-batch-dense --seed 1
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
build="$target/exion_bench"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

cmake -S "$root/bench/exion_bench" -B "$build" \
      -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target exion_bench -j "$jobs" >&2
exec "$build/exion_bench" "$@"
