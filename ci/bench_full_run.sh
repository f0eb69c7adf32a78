#!/usr/bin/env bash
# Regenerates bench_full_run.txt: the paper's table and figure benches at
# their default scale, each under a "##### bench/<name>" header.
#
#   ci/bench_full_run.sh [BUILD_DIR] [OUTPUT]
#
# BUILD_DIR defaults to build/, OUTPUT to bench_full_run.txt at the repo
# root. The benches run in a temporary directory, so the BENCH_*.json files
# they write leave the checked-in ones alone.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-$repo/build}" && pwd)
output=$(realpath -m "${2:-$repo/bench_full_run.txt}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cd "$work"
for name in bench_assembly_times bench_memory_usage bench_vs_baseline \
            bench_sort_blocksize bench_sort_gpus bench_distributed; do
  echo "##### bench/$name"
  "$build/bench/$name" --log-level=warn
done > "$output.tmp"
mv "$output.tmp" "$output"
echo "wrote $output"
