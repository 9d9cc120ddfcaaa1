#!/bin/sh
# The benchmark's history: BENCH_history.jsonl holds one line per PR, the
# untraced benchmark/out/result.json minified, with the PR number added
# under "env". It only stores and fetches documents; better / same /
# WORSE is `dfly-benchmark compare`'s verdict and nobody else's.
#
#     scripts/bench_history.sh record <pr>      run the benchmark, append a line
#     scripts/bench_history.sh compare [-n K]   last line vs. the one K before it (default 1);
#                                               warns on stderr when the two hosts differ
#     scripts/bench_history.sh ab <rev> [K] [WORKLOAD]
#                                               paired A/B on this host: <rev> vs. the working tree,
#                                               K pairs (default 10) of WORKLOAD (default all)
#
# `ab` copies both sides under target/ab/ - a local `git clone` checked
# out at <rev>, and the working tree's tracked and new files - builds each
# side's benchmark there and runs K alternating pairs (default 10) of
# WORKLOAD (default all). Ten pairs is the least that supports a
# verdict: a gain claim needs the change to win at least nine of ten,
# and on a shared host three pairs have read 0/3 wins where ten pairs
# of the same two builds read 5/10. With K < 10 the summary says so. It prints, per workload and end-to-end metric,
# both medians, the parent runs' interquartile spread (a median
# difference inside it is noise), how many pairs the change won in the
# metric's better direction (ties count for neither), the median
# change/parent pair ratio and the pairs' min-max ratio, then whether
# every run of a workload kept the same sim_fingerprint and how many reps
# failed. It appends no history line and writes nothing under benchmark/.
# Run nothing else CPU-heavy meanwhile.
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
    host() { jq -c '.env | [.cpu_model, .nproc]' "$1"; }
    if [ "$(host "$tmp/base.json")" != "$(host "$tmp/candidate.json")" ]; then
        echo "warning: the two lines come from different hosts (cpu_model or nproc differ): read host-time verdicts as host noise" >&2
    fi
    eval "$cli compare $tmp/base.json $tmp/candidate.json"
    ;;
ab)
    rev=${2:?usage: bench_history.sh ab <rev> [K] [WORKLOAD]}
    k=${3:-10}
    workload=${4:-all}
    ab=target/ab
    rm -rf "$ab/base" "$ab/change" "$ab/out"
    mkdir -p "$ab/change" "$ab/out"
    git clone --quiet --no-hardlinks . "$ab/base"
    git -C "$ab/base" checkout --quiet --detach "$rev"
    git ls-files -z --cached --others --exclude-standard |
        tar --null -T - --ignore-failed-read -cf - 2>/dev/null | tar -xf - -C "$ab/change"
    bin=benchmark/target/release/dfly-benchmark
    for side in base change; do
        (cd "$ab/$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    done
    files_base='' files_change=''
    i=1
    while [ "$i" -le "$k" ]; do
        # Alternate which side runs first, so slow host drift hits both.
        order='base change'
        [ $((i % 2)) -eq 0 ] && order='change base'
        for side in $order; do
            echo "pair $i/$k: $side" >&2
            "$ab/$side/$bin" run --workload "$workload" --seed 1 --out "$PWD/$ab/out/$side.$i.json" > /dev/null ||
                echo "$side pair $i: a workload failed its checks (see the failed reps below)" >&2
        done
        files_base="$files_base $ab/out/base.$i.json"
        files_change="$files_change $ab/out/change.$i.json"
        i=$((i + 1))
    done
    # shellcheck disable=SC2086 # the file lists split on purpose
    jq -rs --argjson k "$k" --slurpfile spec BENCHMARK.json '
        # Linear interpolation between order statistics.
        def quantile($p): sort | ((length - 1) * $p) as $x | ($x | floor) as $i
                          | .[$i] + (.[[$i + 1, length - 1] | min] - .[$i]) * ($x - $i);
        def median: quantile(0.5);
        # Four significant digits; integers from 1000 up.
        def num: if . == 0 then "0" elif fabs >= 1000 then "\(round)"
                 else pow(10; 3 - (fabs | log10 | floor)) as $f | "\(. * $f | round / $f)" end;
        def row: [., [19, 22, 6, 10, 10, 10, 5, 7, 0]] | transpose
                 | map(.[0] + " " * ([.[1] - (.[0] | length), 0] | max)) | join(" ");
        .[:$k] as $base | .[$k:] as $change
        | ($base + $change) as $all
        | (["workload", "metric", "better", "parent", "change", "parent IQR", "wins", "ratio", "pair min-max"] | row),
          ($base[0].workloads | keys_unsorted[] as $w
           | $spec[0].end_to_end[] as $m
           | [range(0; $k) | [$base[.], $change[.]] | map(.workloads[$w].metrics[$m.name].value)]
           | select(all(.[]; all(.[]; . != null)))
           | map(select(.[0] != 0) | .[1] / .[0]) as $ratios
           | (if $m.better == "higher" then map(select(.[1] > .[0])) else map(select(.[1] < .[0])) end
              | length) as $wins
           | [$w, $m.name, $m.better, (map(.[0]) | median | num), (map(.[1]) | median | num),
              (map(.[0]) | quantile(0.75) - quantile(0.25) | num), "\($wins)/\(length)",
              ($ratios | if length > 0 then median | num else "-" end),
              ($ratios | if length > 0 then "\(min | num)-\(max | num)" else "-" end)]
           | row),
          (if $k < 10 then "note: \($k) < 10 pairs cannot support a verdict; rerun with K = 10 or more" else empty end),
          "",
          ($base[0].workloads | keys_unsorted[] as $w
           | [$all[].workloads[$w].sim_fingerprint] as $fp
           | "\($w): sim_fingerprint \(if ($fp | unique | length) == 1 then "same in all \($fp | length) runs" else "DIFFERS: \($fp)" end), failed reps parent \([$base[].workloads[$w].failed] | add) change \([$change[].workloads[$w].failed] | add)")
    ' $files_base $files_change
    ;;
*)
    echo "usage: bench_history.sh record <pr> | compare [-n K] | ab <rev> [K=10] [WORKLOAD=all]" >&2
    exit 2
    ;;
esac
