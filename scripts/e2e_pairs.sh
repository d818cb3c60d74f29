#!/usr/bin/env sh
# Judge two builds by the alternating-pair rule of e2ebench/README.md
# ("Comparing two commits").
#
#   scripts/e2e_pairs.sh PARENT CHANGE WORKLOAD N [--claim METRIC] [--seed FIRST] [--out DIR]
#   scripts/e2e_pairs.sh --summarize DIR [--claim METRIC]
#   scripts/e2e_pairs.sh --self-test
#
# PARENT and CHANGE are two checked-out trees, each already built with
#
#   CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
#       --manifest-path e2ebench/Cargo.toml
#
# Pair i (1..N) runs WORKLOAD once on each side with seed FIRST+i-1
# (default FIRST 101), parent first in odd pairs and change first in
# even ones, for the parent BENCHMARK.json's run_seconds, untraced. Each
# run's last stdout line goes to DIR/pair-<i>-<side>.json and its
# stderr to DIR/pair-<i>-<side>.err; DIR (default
# e2e-pairs/<WORKLOAD>-<FIRST>) must not hold pair files yet. The
# aggregate steal ticks of /proc/stat (read-only) are read around each
# run and kept in DIR/steal, so pairs that ran on a contended host show.
#
# Then, for every end-to-end metric of the parent's BENCHMARK.json
# (copied to DIR), with its `better` direction and `bound`:
#
#   medians and quartiles of each side, the ratio change/parent, the
#   change's wins and the ties (a tie counts for neither side), the
#   parent's spread (q3 - q1) / median, and one verdict, taken in this
#   order:
#     gain          at least 10 pairs, 9 in 10 of them won, and the
#                   medians differ, in the better direction, by more
#                   than the parent's q3 - q1;
#     unresolved    the parent's spread exceeds the bound and not every
#                   change run beats every parent run;
#     worse         the change's median is worse than the parent's by
#                   more than the bound;
#     within bound  otherwise.
#
# Quartiles interpolate linearly between order statistics (position
# (n - 1) * p). The exit status is 1 when a run failed its checks, a
# metric is `worse`, or the --claim metric is not a `gain`; 0 otherwise.
# --summarize re-judges a DIR that an earlier run left. --self-test
# judges the canned pairs in scripts/testdata/e2e_pairs, one metric of
# each verdict, and compares with the verdicts recorded there.
#
# Zero dependencies beyond POSIX sh + awk, like the rest of scripts/.
set -eu

usage() {
    sed -n '5,7p' "$0" | sed 's/^# *//' >&2
    exit 2
}

# Aggregate steal ticks: the eighth value of the `cpu` line.
steal_ticks() {
    awk '$1 == "cpu" { print $9; exit }' /proc/stat
}

# judge DIR CLAIM: print the per-pair table and one line per metric.
judge() {
    dir=$1
    claim=$2
    [ -f "$dir/BENCHMARK.json" ] || { echo "e2e_pairs: $dir/BENCHMARK.json missing" >&2; exit 2; }
    set -- "$dir"/pair-*-parent.json
    [ -f "$1" ] || { echo "e2e_pairs: no pair files in $dir" >&2; exit 2; }
    for p in "$@"; do
        c=${p%-parent.json}-change.json
        [ -f "$c" ] || { echo "e2e_pairs: $p has no partner $c" >&2; exit 2; }
    done
    steal=/dev/null
    [ -f "$dir/steal" ] && steal=$dir/steal
    awk -v claim="$claim" '
        function num(line, key,    at) {
            at = index(line, "\"" key "\": ")
            if (at == 0) return ""
            return substr(line, at + length(key) + 4) + 0
        }
        function field(line, key,    at, rest) {
            at = index(line, "\"" key "\": \"")
            if (at == 0) return ""
            rest = substr(line, at + length(key) + 5)
            return substr(rest, 1, index(rest, "\"") - 1)
        }
        # sort v[1..n] ascending (insertion sort: n is a few dozen)
        function sort(v, n,    i, j, x) {
            for (i = 2; i <= n; i++) {
                x = v[i]
                for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                v[j + 1] = x
            }
        }
        function quantile(v, n, p,    at, lo) {
            at = (n - 1) * p + 1
            lo = int(at)
            if (lo >= n) return v[n]
            return v[lo] + (at - lo) * (v[lo + 1] - v[lo])
        }
        # a beats b in direction d ("lower" or "higher")
        function beats(a, b, d) { return d == "lower" ? a < b : a > b }
        BEGIN { sides[1] = "parent"; sides[2] = "change" }
        FILENAME ~ /BENCHMARK\.json$/ {
            if (index($0, "\"end_to_end\"")) { in_e2e = 1; next }
            if (in_e2e && index($0, "]")) in_e2e = 0
            if (in_e2e && index($0, "\"name\"")) {
                m = field($0, "name")
                names[++nm] = m
                better[m] = field($0, "better")
                bound[m] = num($0, "bound")
            }
            next
        }
        FILENAME ~ /\/steal$/ {
            steal_p[$1] = $4; steal_c[$1] = $5; seed[$1] = $2; first[$1] = $3
            next
        }
        {
            f = FILENAME
            sub(/.*\/pair-/, "", f)
            side = f; sub(/^[^-]*-/, "", side); sub(/\.json$/, "", side)
            i = f; sub(/-.*/, "", i)
            if (!(i in seen)) { seen[i] = 1; ids[++np] = i + 0 }
            got[side, i] = 1
            if (index($0, "\"correct\": true") == 0) bad = bad " pair-" i "-" side
            failed[side] += num($0, "failed")
            attempted[side] += num($0, "attempted")
            for (k = 1; k <= nm; k++) {
                v = num($0, names[k] "\": {\"value")
                if (v == "") missing = missing " " names[k] "@pair-" i "-" side
                val[side, i, names[k]] = v
            }
        }
        END {
            sort(ids, np)
            if (nm == 0) { print "e2e_pairs: BENCHMARK.json lists no end_to_end metrics"; exit 2 }
            if (missing != "") { print "e2e_pairs: metrics missing from pair files:" missing; exit 2 }
            for (k = 1; k <= np; k++)
                for (s = 1; s <= 2; s++)
                    if (!((sides[s], ids[k]) in got)) bad = bad " pair-" ids[k] "-" sides[s] "(empty)"
            printf "%d pairs; failed operations: parent %d of %d, change %d of %d\n", \
                np, failed["parent"], attempted["parent"], failed["change"], attempted["change"]
            printf "%-5s %-8s %-7s %10s %10s", "pair", "seed", "first", "steal P", "steal C"
            if (claim != "") printf " %14s %14s", claim " P", claim " C"
            printf "\n"
            for (k = 1; k <= np; k++) {
                i = ids[k]
                printf "%-5s %-8s %-7s %10s %10s", i, (i in seed) ? seed[i] : "-", \
                    (i in first) ? first[i] : "-", (i in steal_p) ? steal_p[i] : "-", \
                    (i in steal_c) ? steal_c[i] : "-"
                if (claim != "") printf " %14.6g %14.6g", val["parent", i, claim], val["change", i, claim]
                printf "\n"
            }
            printf "%-16s %-31s %-31s %7s %6s %6s %6s %5s  %s\n", "metric", "parent median [q1, q3]", \
                "change median [q1, q3]", "ratio", "wins", "ties", "spread", "bound", "verdict"
            status = 0
            claimed = ""
            for (m = 1; m <= nm; m++) {
                name = names[m]; d = better[name]
                wins = 0; ties = 0; all_beat = 1
                for (k = 1; k <= np; k++) {
                    i = ids[k]
                    P[k] = val["parent", i, name]; C[k] = val["change", i, name]
                    if (beats(C[k], P[k], d)) wins++
                    if (C[k] == P[k]) ties++
                }
                for (a = 1; a <= np; a++)
                    for (b = 1; b <= np; b++)
                        if (!beats(C[a], P[b], d)) all_beat = 0
                sort(P, np); sort(C, np)
                pm = quantile(P, np, 0.5); pq1 = quantile(P, np, 0.25); pq3 = quantile(P, np, 0.75)
                cm = quantile(C, np, 0.5); cq1 = quantile(C, np, 0.25); cq3 = quantile(C, np, 0.75)
                ratio = pm != 0 ? cm / pm : 0
                spread = pm != 0 ? (pq3 - pq1) / pm : 0
                gap = d == "lower" ? pm - cm : cm - pm
                loss = d == "lower" ? ratio - 1 : 1 - ratio
                if (np >= 10 && wins * 10 >= 9 * np && gap > pq3 - pq1) verdict = "gain"
                else if (spread > bound[name] && !all_beat) verdict = "unresolved"
                else if (loss > bound[name]) verdict = "worse"
                else verdict = "within bound"
                if (verdict == "worse") status = 1
                if (name == claim) claimed = verdict
                printf "%-16s %-31s %-31s %6.3fx %6s %6s %6.3f %5.2f  %s\n", name, \
                    sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3), \
                    sprintf("%.6g [%.6g, %.6g]", cm, cq1, cq3), \
                    ratio, wins "/" np, ties "/" np, spread, bound[name], verdict
            }
            if (np < 10) print "fewer than 10 pairs: the pair rule judges no metric a gain"
            if (claim != "" && claimed == "") {
                print "e2e_pairs: --claim " claim " is not an end_to_end metric"
                status = 2
            } else if (claim != "") {
                print "claim " claim ": " (claimed == "gain" ? "met" : "not met (" claimed ")")
                if (claimed != "gain") status = 1
            }
            if (bad != "") { print "e2e_pairs: runs that failed their checks:" bad; status = 1 }
            exit status
        }' "$dir/BENCHMARK.json" "$steal" "$dir"/pair-*-parent.json "$dir"/pair-*-change.json
}

self_test() {
    data=$(dirname "$0")/testdata/e2e_pairs
    out=$(judge "$data" "" || true)
    printf '%s\n' "$out"
    # The verdict is everything after the bound column.
    got=$(printf '%s\n' "$out" | awk 'NF && $1 in want { print $1 ": " verdict($0) }
        function verdict(line) { sub(/.*[0-9]  /, "", line); return line }
        BEGIN { while ((getline l < ARGV[1]) > 0) { split(l, f, ": "); want[f[1]] = 1 } ARGV[1] = "" }' \
        "$data/expected")
    if [ "$got" != "$(cat "$data/expected")" ]; then
        echo "e2e_pairs: self-test FAILED; expected:" >&2
        cat "$data/expected" >&2
        echo "got:" >&2
        printf '%s\n' "$got" >&2
        exit 1
    fi
    if judge "$data" "" >/dev/null; then
        echo "e2e_pairs: self-test FAILED: a worse metric exited 0" >&2
        exit 1
    fi
    echo "e2e_pairs: self-test OK"
}

[ $# -ge 1 ] || usage
case $1 in
    --self-test)
        self_test
        exit 0
        ;;
    --summarize)
        [ $# -ge 2 ] || usage
        dir=$2
        shift 2
        claim=""
        while [ $# -gt 0 ]; do
            case $1 in
                --claim) [ $# -ge 2 ] || usage; claim=$2; shift 2 ;;
                *) usage ;;
            esac
        done
        judge "$dir" "$claim"
        exit $?
        ;;
esac

[ $# -ge 4 ] || usage
parent=$1 change=$2 workload=$3 pairs=$4
shift 4
claim="" first_seed=101 out=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --claim) claim=$2 ;;
        --seed) first_seed=$2 ;;
        --out) out=$2 ;;
        *) usage ;;
    esac
    shift 2
done
case $pairs in '' | *[!0-9]*) usage ;; esac
case $first_seed in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
for tree in "$parent" "$change"; do
    [ -x "$tree/.bench_build/release/e2e" ] || {
        echo "e2e_pairs: $tree/.bench_build/release/e2e is not built" >&2
        exit 2
    }
done
secs=$(awk '/"run_seconds"/ { sub(/.*"run_seconds": */, ""); sub(/[^0-9].*/, ""); print; exit }' \
    "$parent/BENCHMARK.json")
[ -n "$secs" ] || { echo "e2e_pairs: no run_seconds in $parent/BENCHMARK.json" >&2; exit 2; }
out=${out:-e2e-pairs/$workload-$first_seed}
mkdir -p "$out"
out=$(cd "$out" && pwd)
if ls "$out"/pair-* >/dev/null 2>&1; then
    echo "e2e_pairs: $out already holds pair files; judge them with --summarize" >&2
    exit 2
fi
cp "$parent/BENCHMARK.json" "$out/BENCHMARK.json"
: >"$out/steal"

i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((first_seed + i - 1))
    if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
        t0=$(steal_ticks)
        (cd "$tree" && .bench_build/release/e2e --workload "$workload" --seed "$seed" \
            --seconds "$secs" --trace 0 2>"$out/pair-$i-$side.err" | tail -n 1 >"$out/pair-$i-$side.json")
        eval "steal_$side=$(($(steal_ticks) - t0))"
    done
    echo "$i $seed ${order%% *} $steal_parent $steal_change" >>"$out/steal"
    echo "e2e_pairs: pair $i/$pairs seed $seed done (steal ticks parent $steal_parent, change $steal_change)" >&2
    i=$((i + 1))
done

echo "e2e_pairs: $workload, $pairs pairs of ${secs}s runs in $out"
judge "$out" "$claim"
