#!/usr/bin/env bash
# Builds the benchmark and runs every workload with the default seed.
#   benchmark/run.sh            one pass, summary in <target>/benchmark-a.json
#   benchmark/run.sh --twice    a second pass, then --compare of the two
# Further arguments (--seed, --seconds, --trace 0) go to both passes.
set -euo pipefail
cd "$(dirname "$0")/.."

twice=0
args=()
for arg in "$@"; do
  if [ "$arg" = "--twice" ]; then twice=1; else args+=("$arg"); fi
done

out="${CARGO_TARGET_DIR:-benchmark/target}"
mkdir -p "$out"
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

"${bench[@]}" ${args[@]+"${args[@]}"} --out "$out/benchmark-a.json"
if [ "$twice" = 1 ]; then
  "${bench[@]}" ${args[@]+"${args[@]}"} --out "$out/benchmark-b.json"
  "${bench[@]}" --compare "$out/benchmark-a.json" "$out/benchmark-b.json"
fi
