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
# Exit status: 0 when every run printed "correct": true, "failed": 0 and
# both metrics, 1 otherwise, 2 on bad arguments. Needs only a POSIX sh, awk
# and sort.
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
    i=$((i + 1))
done

# stats SIDE COLUMN NAME: median and quartiles of one side's metric.
stats() {
    printf '%s' "$rows" | awk -v side="$1" -v col="$2" '$1 == side { print $col }' |
        sort -n | awk -v label="$1 $3" '
        function q(p,   h, k) {
            h = (NR - 1) * p + 1
            k = int(h)
            return k >= NR ? x[NR] : x[k] + (h - k) * (x[k + 1] - x[k])
        }
        { x[NR] = $1 }
        END {
            if (NR) printf "%-21s median %.6g  quartiles %.6g-%.6g  (n %d)\n", label, q(0.5), q(0.25), q(0.75), NR
        }'
}

echo "== $workload, seeds $first-$((first + pairs - 1)), ${seconds}s per run"
for side in parent change; do stats "$side" 2 crawl_vs_bfs; done
for side in parent change; do stats "$side" 3 setup_s; done
echo "change lower in $won_ratio/$pairs pairs on crawl_vs_bfs, $won_setup/$pairs on setup_s"
if [ "$bad" -ne 0 ]; then
    echo "$0: $bad run(s) not correct, with failed crawls or missing a metric" >&2
    exit 1
fi
