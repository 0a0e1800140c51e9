#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree, judged
# by the rule in ROADMAP.md ("How a claim is judged").
#
#   scripts/paired_bench.sh <parent-rev> <workload...>
#
# Copies <parent-rev> (git archive) and the working tree (tracked +
# untracked-unignored files, uncommitted edits included) side by side under
# ${SCRATCH:-/tmp}/paired_bench, builds both with the manifest of the
# BENCHMARK.json command, then for every workload runs PAIRS (default 10)
# alternating pairs on distinct seeds (SEED0+1 .. SEED0+PAIRS, SEED0
# default 1000) through that command with `--seconds 20 --trace 0 --out
# <side>`, and prints per end-to-end metric each side's median and
# quartiles, the change's wins, the ratio of medians and the parent's
# IQR / median. With BENCH_JSON=<path> it also writes one record per side
# per workload in the committed BENCH_<pr>.json schema: `items_per_sec` is
# the side's median, `config` names the pairs and seeds and gives the
# `items_per_s` quartiles and the `cpu_ns_per_item` median and quartiles.
# Reads the repository only; writes only under SCRATCH and to BENCH_JSON.
#
# Environment: SCRATCH, PAIRS, SEED0, SECONDS_PER_RUN (default 20; shorter
# runs are for trying the script out, never for a claim), BENCH_JSON.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload...>" >&2
    exit 2
fi
parent_rev=$1
shift
workloads=("$@")

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
root=${SCRATCH:-/tmp}/paired_bench
pairs=${PAIRS:-10}
seed0=${SEED0:-1000}
seconds=${SECONDS_PER_RUN:-20}
manifest=$(grep -o '"[^"]*Cargo\.toml"' "$repo/BENCHMARK.json" | tr -d '"')
# name:better, as BENCHMARK.json's `end_to_end` lists them.
metrics="setup_s:lower items_per_s:higher cpu_ns_per_item:lower \
queries_per_s:higher hh_p50_us:lower peak_rss_mb:lower"

rm -rf "$root"
mkdir -p "$root/parent" "$root/change" "$root/out"
git -C "$repo" archive "$parent_rev" | tar -x -C "$root/parent"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -cf -) | tar -x -C "$root/change"

for side in parent change; do
    echo "building $side ..." >&2
    (cd "$root/$side" && cargo build --release --quiet --manifest-path "$manifest")
done

run() { # side workload seed
    (cd "$root/$1" && cargo run --release --quiet --manifest-path "$manifest" -- \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
        --out "$root/out/$1" >/dev/null)
}

for workload in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        seed=$((seed0 + i))
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "$workload pair $i/$pairs seed $seed: $side" >&2
            run "$side" "$workload" "$seed"
        done
    done
done

# One metric's reported value out of a result file (metric objects hold no
# nested braces, so the first `}` ends them).
value() { # file metric
    grep -o "\"$2\": {[^}]*}" "$1" | grep -o '"value": [^,}]*' | cut -d' ' -f2 || true
}
count() { # file top-level-key
    grep -o "\"$2\": [0-9]*" "$1" | head -n 1 | cut -d' ' -f2
}
# Sorted insertion and linearly interpolated quantiles, shared by the awk
# programs below.
stats_awk='
    function quantile(v, n, q,    at, lo) {
        at = (n - 1) * q; lo = int(at)
        return lo + 1 < n ? v[lo + 1] + (at - lo) * (v[lo + 2] - v[lo + 1]) : v[n]
    }
    function insert(v, n, x,    j) {
        for (j = n; j > 0 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }'
# "median q1 q3" of one metric over one side's runs of a workload.
side_quantiles() { # side workload metric
    for i in $(seq 1 "$pairs"); do
        value "$root/out/$1/result-$2-t0-s$((seed0 + i)).json" "$3"
    done | awk "$stats_awk"'
        NF { insert(v, n++, $1) }
        END {
            if (n) printf "%.17g %.17g %.17g\n",
                quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75)
        }'
}
records=()

for workload in "${workloads[@]}"; do
    echo
    echo "== $workload: $pairs pairs, seeds $((seed0 + 1))-$((seed0 + pairs)), --seconds $seconds --trace 0"
    for side in parent change; do
        attempted=0
        failed=0
        for i in $(seq 1 "$pairs"); do
            file=$root/out/$side/result-$workload-t0-s$((seed0 + i)).json
            attempted=$((attempted + $(count "$file" attempted)))
            failed=$((failed + $(count "$file" failed)))
        done
        echo "$side: failed $failed of $attempted attempted"
    done
    printf '%-16s %-6s %12s %12s %12s   %12s %12s %12s  %5s %8s %10s\n' \
        metric better parent_med parent_q1 parent_q3 change_med change_q1 change_q3 \
        wins chg/par par_iqr/med
    for entry in $metrics; do
        metric=${entry%%:*}
        for i in $(seq 1 "$pairs"); do
            seed=$((seed0 + i))
            p=$(value "$root/out/parent/result-$workload-t0-s$seed.json" "$metric")
            c=$(value "$root/out/change/result-$workload-t0-s$seed.json" "$metric")
            if [ -n "$p" ] && [ -n "$c" ]; then echo "$p $c"; fi
        done | awk -v metric="$metric" -v better="${entry##*:}" "$stats_awk"'
            {
                insert(par, NR - 1, $1); insert(chg, NR - 1, $2)
                if (better == "lower" ? $2 < $1 : $2 > $1) wins++
            }
            END {
                if (NR == 0) exit
                pm = quantile(par, NR, 0.5); p1 = quantile(par, NR, 0.25); p3 = quantile(par, NR, 0.75)
                cm = quantile(chg, NR, 0.5); c1 = quantile(chg, NR, 0.25); c3 = quantile(chg, NR, 0.75)
                printf "%-16s %-6s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g  %2d/%-2d %8.3f %10.3f\n",
                    metric, better, pm, p1, p3, cm, c1, c3, wins, NR,
                    pm ? cm / pm : 0, pm ? (p3 - p1) / pm : 0
            }'
    done
    for side in parent change; do
        read -r rate_med rate_q1 rate_q3 <<<"$(side_quantiles "$side" "$workload" items_per_s)"
        read -r cpu_med cpu_q1 cpu_q3 <<<"$(side_quantiles "$side" "$workload" cpu_ns_per_item)"
        records+=("$(printf '  {"experiment": "%s", "config": "%s, median of %d pairs (seeds %d-%d, --seconds %s --trace 0), IQR %.0f-%.0f; cpu_ns_per_item median %.2f IQR %.2f-%.2f", "items_per_sec": %.0f}' \
            "$workload" "$side" "$pairs" $((seed0 + 1)) $((seed0 + pairs)) "$seconds" \
            "$rate_q1" "$rate_q3" "$cpu_med" "$cpu_q1" "$cpu_q3" "$rate_med")")
    done
done
echo
echo "result files: $root/out/{parent,change}"
if [ -n "${BENCH_JSON:-}" ]; then
    {
        echo "["
        last=$((${#records[@]} - 1))
        for i in "${!records[@]}"; do
            if [ "$i" -lt "$last" ]; then echo "${records[$i]},"; else echo "${records[$i]}"; fi
        done
        echo "]"
    } >"$BENCH_JSON"
    echo "trajectory records: $BENCH_JSON"
fi
