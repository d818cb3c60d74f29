#!/usr/bin/env sh
# Compare fresh bench JSONs against the committed baselines.
#
#   scripts/bench_compare.sh [NEW_THROUGHPUT] [BASELINE_THROUGHPUT]
#
# Covers every bench with a committed baseline:
#
#   throughput    results/BENCH_throughput.json  gate: single_shard_batched_mpps
#   query_latency results/BENCH_query.json       gate: rollup_speedup
#   qps           results/BENCH_qps.json         gate: single_reader_qps
#   storage       results/BENCH_storage.json     compare only
#
# For each, prints old -> new with the ratio and exits 1 if a gated
# metric's ratio falls below BENCH_MIN_RATIO (default 1.0, i.e. "no
# regression"; CI may set it higher to enforce a speedup). The gated
# metrics are chosen to be the perf-trajectory numbers: single-shard
# ingest capacity, the hierarchy-rollup speedup over per-spec scans,
# and the resident service's single-reader query rate. A bench whose
# result file is missing is skipped with a notice (run it first to
# gate it); the throughput pair keeps its historical positional
# overrides.
#
# Zero dependencies beyond POSIX sh + awk, like the rest of scripts/.
set -eu

MIN=${BENCH_MIN_RATIO:-1.0}
FAILED=0

# Extract `"key": <number>` from a one-key-per-line JSON document.
field() {
    awk -v key="\"$2\":" '
        index($0, key) {
            sub(".*" key "[ ]*", ""); sub("[,}].*", ""); print; exit
        }' "$1"
}

# compare NEW BASE key: print the ratio for one metric.
compare() {
    old=$(field "$2" "$3")
    new=$(field "$1" "$3")
    if [ -z "$old" ] || [ -z "$new" ]; then
        echo "bench_compare: $3: missing in one of the files (old='$old' new='$new')"
        return
    fi
    awk -v o="$old" -v n="$new" -v name="$3" \
        'BEGIN { printf "bench_compare: %-28s %10.4f -> %10.4f  (%.3fx)\n", name, o, n, n / o }'
}

# gate NEW BASE key: fail the run if new/old drops below BENCH_MIN_RATIO.
gate() {
    old=$(field "$2" "$3")
    new=$(field "$1" "$3")
    if [ -z "$old" ] || [ -z "$new" ]; then
        echo "bench_compare: FAIL: gated metric $3 missing (old='$old' new='$new')"
        FAILED=1
        return
    fi
    awk -v o="$old" -v n="$new" -v min="$MIN" -v name="$3" 'BEGIN {
        ratio = n / o
        if (ratio < min) {
            printf "bench_compare: FAIL: %s ratio %.3f below threshold %s\n", name, ratio, min
            exit 1
        }
        printf "bench_compare: OK: %s ratio %.3f (threshold %s)\n", name, ratio, min
    }' || FAILED=1
}

# --- throughput (positional overrides preserved) ---------------------
NEW=${1:-results/BENCH_throughput.json}
BASE=${2:-baselines/BENCH_throughput.json}
[ -f "$NEW" ] || { echo "bench_compare: missing $NEW (run the throughput bench first)" >&2; exit 2; }
[ -f "$BASE" ] || { echo "bench_compare: missing baseline $BASE" >&2; exit 2; }
compare "$NEW" "$BASE" scalar_mpps
compare "$NEW" "$BASE" single_shard_batched_mpps
gate "$NEW" "$BASE" single_shard_batched_mpps

# --- query_latency ---------------------------------------------------
QNEW=results/BENCH_query.json
QBASE=baselines/BENCH_query.json
if [ -f "$QNEW" ] && [ -f "$QBASE" ]; then
    compare "$QNEW" "$QBASE" engine_speedup
    compare "$QNEW" "$QBASE" rollup_speedup
    gate "$QNEW" "$QBASE" rollup_speedup
else
    echo "bench_compare: query_latency skipped (need $QNEW and $QBASE)"
fi

# --- qps -------------------------------------------------------------
SNEW=results/BENCH_qps.json
SBASE=baselines/BENCH_qps.json
if [ -f "$SNEW" ] && [ -f "$SBASE" ]; then
    compare "$SNEW" "$SBASE" single_reader_qps
    compare "$SNEW" "$SBASE" ingest_baseline_mpps
    gate "$SNEW" "$SBASE" single_reader_qps
else
    echo "bench_compare: qps skipped (need $SNEW and $SBASE)"
fi

# --- storage ---------------------------------------------------------
TNEW=results/BENCH_storage.json
TBASE=baselines/BENCH_storage.json
if [ -f "$TNEW" ] && [ -f "$TBASE" ]; then
    compare "$TNEW" "$TBASE" seal_append_us_mean
    compare "$TNEW" "$TBASE" scan_mb_per_s
else
    echo "bench_compare: storage skipped (need $TNEW and $TBASE)"
fi

exit $FAILED
