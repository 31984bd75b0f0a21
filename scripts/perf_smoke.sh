#!/bin/sh
# Perf smoke test for the trap-filtered hit fast paths.
#
# Runs the instrumented large-cache fig2 row (1M icache, miss ratio
# well under 1%) with TW_FIG2_DCACHE=1, so ONE run measures BOTH
# trap-driven filters on their hit-dominated configurations, plus the
# Pixie+Cache2000 row the same grid always carries:
#
#   tw_refs_per_sec  — the chunked inner loop on an I-cache filter
#                      (no deliverable data kinds: bulk accounting,
#                      SIMD same-page span consumption);
#   twd_refs_per_sec — the same chunked loop on a unified-cache
#                      filter (loads/stores probed on data pages with
#                      trap bits and delivered mid-chunk, SIMD
#                      page-span trap probes);
#   c2k_refs_per_sec — the trace-driven comparator (Pixie+Cache2000
#                      on the observed loop, run to each clock tick,
#                      other tasks on the chunked loop).
#
# and the Table 7 grid (1/8 set sampling, 16 KB physically indexed,
# all activity) at its default 1/400 scale:
#
#   t7_refs_per_sec  — the chunked loop where most fetch pages carry
#                      trap bits: runs of clear-bit fetches consumed
#                      by one scan each.
#
# Each grid runs RUNS times and each rate is gated on its median,
# which must be at least MIN_PCT percent of its checked-in floor
# (scripts/perf_baseline.json). A regression that loses any fast
# path shows up as a many-x drop, far below the threshold, while
# machine-to-machine variation and one slow run stay well above it.
# The runs happen in a scratch directory so the checked-in BENCH
# json is untouched.
#
# Usage: scripts/perf_smoke.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
ROOT=$(pwd)
BUILD="${1:-build}"
DRIVER="$ROOT/$BUILD/bench/bench_driver"
BASELINE="$ROOT/scripts/perf_baseline.json"
MIN_PCT=70
RUNS=3

if [ ! -x "$DRIVER" ]; then
    echo "perf_smoke: $DRIVER not built, skipping" >&2
    exit 0
fi

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

# fig2 at 1/20 scale runs ~100M references (~150 ms): long enough
# that the rate is not dominated by per-trial setup or timer noise.
for i in $(seq "$RUNS"); do
    mkdir "$T/$i"
    (cd "$T/$i" && TW_FIG2_ONLY_KB=1024 TW_FIG2_DCACHE=1 \
        TW_SCALE_DIV="${TW_SCALE_DIV:-20}" TW_THREADS=1 \
        "$DRIVER" --run fig2 --report > /dev/null)
    (cd "$T/$i" && TW_SCALE_DIV=400 TW_THREADS=1 \
        "$DRIVER" --run table7 --report > /dev/null)
done

json_num() {
    awk -F: -v k="\"$2\"" '$1 ~ k { gsub(/[ ,]/, "", $2); print $2 }' "$1"
}

# Median of the key's rate over the runs' reports.
median_rate() {
    for i in $(seq "$RUNS"); do
        json_num "$T/$i/$2" "$1"
    done | sort -g | awk '{ v[NR] = $1 } END { if (NR) print v[int((NR + 1) / 2)] }'
}

status=0
for entry in tw_refs_per_sec:BENCH_fig2_slowdowns.json \
             twd_refs_per_sec:BENCH_fig2_slowdowns.json \
             c2k_refs_per_sec:BENCH_fig2_slowdowns.json \
             t7_refs_per_sec:BENCH_table7_variation.json; do
    key=${entry%%:*}
    rate=$(median_rate "$key" "${entry#*:}")
    base=$(json_num "$BASELINE" "$key")
    if [ -z "$rate" ] || [ -z "$base" ]; then
        echo "perf_smoke: FAIL ($key: rate='$rate' base='$base')" >&2
        status=1
        continue
    fi
    ok=$(awk -v r="$rate" -v b="$base" -v p="$MIN_PCT" \
        'BEGIN { print (r >= b * p / 100) ? 1 : 0 }')
    pct=$(awk -v r="$rate" -v b="$base" \
        'BEGIN { printf "%.0f", 100 * r / b }')
    if [ "$ok" != 1 ]; then
        echo "perf_smoke: FAIL — $key median $rate refs/s is ${pct}% of baseline $base (need >= ${MIN_PCT}%)" >&2
        status=1
    else
        echo "perf_smoke: OK — $key median $rate refs/s (${pct}% of baseline $base)"
    fi
done
exit $status
