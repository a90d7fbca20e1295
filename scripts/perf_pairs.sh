#!/bin/sh
# Paired perfbench runs of two builds, for judging a performance change.
#
#   scripts/perf_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD FIRST_SEED PAIRS [SECONDS]
#
# PARENT_BIN and CHANGE_BIN are perfbench binaries: `cargo build --release
# --offline --manifest-path <checkout>/perfbench/Cargo.toml` leaves one at
# <checkout>/perfbench/target/release/langcrawl-perfbench.
#
# Pair i runs both binaries on seed FIRST_SEED + i for SECONDS (default 10)
# with --trace 0. Even pairs run the parent first, odd pairs the change, so a
# drift in machine speed falls on both sides alike. The script prints one line
# per run, then each side's median and quartiles of crawl_vs_bfs and setup_s
# (linear interpolation between order statistics), and the number of pairs in
# which the change read lower, which is better for both metrics.
#
# A metric shows a clear loss when the change read higher in every pair and
# its median is above the parent's by more than the metric's "bound" in the
# BENCHMARK.json next to this script's directory (0.25: 25% higher).
#
# Build both binaries at paths of the same length: one source built at two
# path lengths differs in code layout and in timings. Same-length paths are
# still not layout-neutral: two builds of one source at same-length paths
# have read 2.5-4% apart (soft, faults, pagerank, detector; 3 pairs of 10-s
# runs). A clear loss is therefore the only verdict this script gives; a
# claimed or feared change of a few percent needs 10-s pairs plus a control
# run against a second build of the parent.
#
# Exit status: 1 when a run did not print "correct": true, "failed": 0 and
# both metrics; otherwise 3 on a clear loss on either metric, else 0. 2 on
# bad arguments. Needs only a POSIX sh, awk, grep and sort.
set -eu

usage() {
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD FIRST_SEED PAIRS [SECONDS]" >&2
    exit 2
}
[ $# -eq 5 ] || [ $# -eq 6 ] || usage
parent_bin=$1
change_bin=$2
workload=$3
first=$4
pairs=$5
seconds=${6:-10}
for n in "$first" "$pairs" "$seconds"; do
    case $n in '' | *[!0-9]*) usage ;; esac
done
for bin in "$parent_bin" "$change_bin"; do
    [ -x "$bin" ] || {
        echo "$0: $bin is not an executable" >&2
        exit 2
    }
done
benchmark=$(dirname "$0")/../BENCHMARK.json

# field LINE KEY: the value of KEY in a perfbench result line, either a bare
# value ("correct", "failed") or a metric object's "value".
field() {
    printf '%s\n' "$1" | awk -v key="$2" '{
        i = index($0, "\"" key "\": ")
        if (i == 0) exit
        rest = substr($0, i + length(key) + 4)
        if (substr(rest, 1, 1) == "{") rest = substr(rest, index(rest, "\"value\": ") + 9)
        match(rest, /^[^,}]*/)
        print substr(rest, 1, RLENGTH)
    }'
}

# bound METRIC: the metric's "bound" in BENCHMARK.json.
bound() {
    b=$(field "$(grep -F "\"name\": \"$1\"" "$benchmark")" bound)
    case $b in
    '' | *[!0-9.]*)
        echo "$0: no bound for $1 in $benchmark" >&2
        exit 2
        ;;
    esac
    echo "$b"
}
ratio_bound=$(bound crawl_vs_bfs)
setup_bound=$(bound setup_s)

nl='
'
rows=''
bad=0

# run SIDE SEED: one perfbench run of SIDE's binary; sets $ratio and $setup
# and appends "SIDE RATIO SETUP" to $rows.
run() {
    if [ "$1" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
    line=$("$bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 |
        awk '{ last = $0 } END { print last }')
    ratio=$(field "$line" crawl_vs_bfs)
    setup=$(field "$line" setup_s)
    correct=$(field "$line" correct)
    failed=$(field "$line" failed)
    printf 'seed %s  %-6s  crawl_vs_bfs %s  setup_s %s  correct %s  failed %s\n' \
        "$2" "$1" "${ratio:-?}" "${setup:-?}" "${correct:-?}" "${failed:-?}"
    if [ "$correct" != true ] || [ "$failed" != 0 ] || [ -z "$ratio" ] || [ -z "$setup" ]; then
        bad=$((bad + 1))
    fi
    rows="$rows$1 ${ratio:-nan} ${setup:-nan}$nl"
}

# lower A B: exit 0 when B < A numerically.
lower() {
    awk -v a="$1" -v b="$2" 'BEGIN { exit !(b + 0 < a + 0) }'
}

won_ratio=0
won_setup=0
higher_ratio=0
higher_setup=0
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((first + i))
    if [ $((i % 2)) -eq 0 ]; then order='parent change'; else order='change parent'; fi
    for side in $order; do
        run "$side" "$seed"
        if [ "$side" = parent ]; then
            parent_ratio=$ratio parent_setup=$setup
        else
            change_ratio=$ratio change_setup=$setup
        fi
    done
    if lower "$parent_ratio" "$change_ratio"; then won_ratio=$((won_ratio + 1)); fi
    if lower "$parent_setup" "$change_setup"; then won_setup=$((won_setup + 1)); fi
    if lower "$change_ratio" "$parent_ratio"; then higher_ratio=$((higher_ratio + 1)); fi
    if lower "$change_setup" "$parent_setup"; then higher_setup=$((higher_setup + 1)); fi
    i=$((i + 1))
done

# quantiles SIDE COLUMN: "median q1 q3 n" of one side's metric.
quantiles() {
    printf '%s' "$rows" | awk -v side="$1" -v col="$2" '$1 == side { print $col }' |
        sort -n | awk '
        function q(p,   h, k) {
            h = (NR - 1) * p + 1
            k = int(h)
            return k >= NR ? x[NR] : x[k] + (h - k) * (x[k + 1] - x[k])
        }
        { x[NR] = $1 }
        END { if (NR) printf "%.17g %.17g %.17g %d\n", q(0.5), q(0.25), q(0.75), NR }'
}

# stats SIDE COLUMN NAME: one side's median and quartiles of a metric.
stats() {
    # The unquoted substitution splits the quantiles into four arguments.
    set -- "$1 $3" $(quantiles "$1" "$2")
    if [ $# -eq 5 ]; then printf '%-21s median %.6g  quartiles %.6g-%.6g  (n %d)\n' "$@"; fi
}

# loss COLUMN NAME HIGHER BOUND: exit 0, after saying so, when the change
# read higher in every pair and its median exceeds the parent's by more
# than BOUND.
loss() {
    [ "$3" -eq "$pairs" ] || return 1
    parent_median=$(quantiles parent "$1" | awk '{ print $1 }')
    change_median=$(quantiles change "$1" | awk '{ print $1 }')
    awk -v p="$parent_median" -v c="$change_median" -v b="$4" 'BEGIN { exit !(c + 0 > (p + 0) * (1 + b)) }' ||
        return 1
    printf '%s: %s: change higher on %s in %d/%d pairs, median %.6g vs %.6g, beyond the %s bound\n' \
        "$0" "$workload" "$2" "$3" "$pairs" "$change_median" "$parent_median" "$4" >&2
}

echo "== $workload, seeds $first-$((first + pairs - 1)), ${seconds}s per run"
for side in parent change; do stats "$side" 2 crawl_vs_bfs; done
for side in parent change; do stats "$side" 3 setup_s; done
echo "change lower in $won_ratio/$pairs pairs on crawl_vs_bfs, $won_setup/$pairs on setup_s"
if [ "$bad" -ne 0 ]; then
    echo "$0: $bad run(s) not correct, with failed crawls or missing a metric" >&2
    exit 1
fi
lost=0
if loss 2 crawl_vs_bfs "$higher_ratio" "$ratio_bound"; then lost=1; fi
if loss 3 setup_s "$higher_setup" "$setup_bound"; then lost=1; fi
[ "$lost" -eq 0 ] || exit 3
