#!/bin/sh
# The benchmark's history: BENCH_history.jsonl holds one line per PR, the
# untraced benchmark/out/result.json minified, with the PR number added
# under "env". It only stores and fetches documents; better / same /
# WORSE is `dfly-benchmark compare`'s verdict and nobody else's.
#
#     scripts/bench_history.sh record <pr>      run the benchmark, append a line
#     scripts/bench_history.sh compare [-n K]   last line vs. the one K before it (default 1)
set -eu
cd "$(dirname "$0")/.."
history=BENCH_history.jsonl
# BENCHMARK.json's command minus its trailing `run`: the dfly-benchmark CLI.
cli=$(jq -r '.command[:-1] | @sh' BENCHMARK.json)
case "${1:-}" in
record)
    pr=${2:?usage: bench_history.sh record <pr>}
    eval "$cli run --workload all --seed 1"
    jq -c --argjson pr "$pr" '.env.pr = $pr' benchmark/out/result.json >> "$history"
    ;;
compare)
    k=1
    [ "${2:-}" = -n ] && k=${3:?-n needs a count}
    [ "$(wc -l < "$history")" -gt "$k" ] || { echo "$history has no line $k before the last" >&2; exit 2; }
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    tail -n "$((k + 1))" "$history" | head -n 1 > "$tmp/base.json"
    tail -n 1 "$history" > "$tmp/candidate.json"
    jq -c '.env | {pr, commit, cpu_model, nproc}' "$tmp/base.json" "$tmp/candidate.json"
    eval "$cli compare $tmp/base.json $tmp/candidate.json"
    ;;
*)
    echo "usage: bench_history.sh record <pr> | compare [-n K]" >&2
    exit 2
    ;;
esac
