#!/usr/bin/env sh
# The full CI gate, runnable locally. The workspace has zero external
# dependencies, so every step runs --offline by design — if a dependency
# ever sneaks in, the build step fails here first.
set -eu

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline"
cargo test --workspace -q --offline

# The fault/retry layer's pinned suites, named explicitly so a CI log
# shows them running: the zero-fault conformance goldens (bit-identical
# CrawlReports with the fault model disabled), the retry/backoff
# property tests, and the webgraph fault-draw determinism proptests.
echo "==> fault conformance + retry property suites"
cargo test -q --offline -p langcrawl-core --test fault_conformance --test retry_proptests
cargo test -q --offline -p langcrawl-webgraph --test proptests

# Scheduler conformance and shard parity, re-run under explicit
# generation thread counts: the golden hashes in these suites are
# absolute constants, so a pass under every setting proves the K-slot
# schedule (and the sharded frontier behind it) is thread-invariant
# end to end, not merely self-consistent. The frontier models run
# alongside: the sharded frontier's slot model, and the timed
# read-ahead frontier's Mercator model (a unit test, since the type is
# crate-private), over a space generated under each setting.
echo "==> scheduler conformance + shard parity + frontier models (LANGCRAWL_THREADS=1,4)"
for threads in 1 4; do
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-core \
        --test sched_conformance --test frontier_accounting
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-core \
        --test proptests sharded_frontier
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-core \
        --lib read_ahead_matches_the_mercator_model
done

# Checkpoint/resume parity, re-run under both generation thread counts
# like the conformance suites: snapshot at tick T -> drop -> resume must
# be bit-identical to the uninterrupted run for every pinned cell, and
# the codec must reject every corruption with a typed error. The suites
# dump each snapshot they resume from into LANGCRAWL_SNAPSHOT_DIR, so a
# parity failure leaves its fixture behind (CI uploads the directory as
# an artifact on failure). The path is absolute because cargo runs each
# test binary in its package's directory.
echo "==> resume parity + snapshot codec (LANGCRAWL_THREADS=1,4)"
mkdir -p target/snapshot-fixtures
for threads in 1 4; do
    LANGCRAWL_THREADS=$threads LANGCRAWL_SNAPSHOT_DIR="$PWD/target/snapshot-fixtures" \
        cargo test -q --offline -p langcrawl-core \
        --test resume_parity --test snapshot_codec --test snapshot_dir_wiring
done

# A harness whose captures cannot be written fails: repro_all running
# fig3 at smoke scale, capturing every 1000 ticks into a directory under
# a regular file, must exit non-zero and name that directory in the
# error on stderr. Its results directory is under target/ too, so the
# step writes nothing into the checkout.
echo "==> unwritable snapshot directory fails the harness (repro_all fig3)"
unwritable="$PWD/target/snapshot-unwritable"
rm -rf "$unwritable"
mkdir -p "$unwritable"
: > "$unwritable/file"
if LANGCRAWL_RESULTS_DIR="$unwritable/results" LANGCRAWL_SCALE=8000 LANGCRAWL_SNAPSHOT_EVERY=1000 \
    LANGCRAWL_SNAPSHOT_DIR="$unwritable/file/snaps" \
    cargo run -q --release --offline -p langcrawl-bench --bin repro_all -- fig3 > /dev/null 2> "$unwritable/stderr"; then
    echo "    repro_all fig3 exited 0 although its snapshots could not be written"
    exit 1
fi
grep -q "snapshot capture failed: cannot write $unwritable/file/snaps/" "$unwritable/stderr" || {
    cat "$unwritable/stderr"
    exit 1
}
echo "    repro_all fig3 failed, naming $unwritable/file/snaps"

# Link-analysis parity, re-run under both generation thread counts: the
# incremental PageRank refresh and the flat HITS firing must produce
# CrawlReports identical to their full-recompute references on the
# pinned cells, the ranks and the three link strategies' reports must
# match their pinned digests, and the forward-only crawl-graph store
# must match its naive model, regardless of how many threads generated
# the web space. The PageRank unit tests run with them: the refresh
# merges each refresh's new edges into in-lists kept by page id, and
# their model property checks every list against the ascending sources
# of its recorded in-edges after every update.
echo "==> link-analysis parity + crawl-graph store properties + PageRank unit tests (LANGCRAWL_THREADS=1,4)"
for threads in 1 4; do
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-core \
        --test link_analysis_parity --test linkgraph_props
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-core \
        --lib linkgraph::pagerank
done

# Content-byte parity, re-run under both generation thread counts: the
# composite detector, which skips the Latin-1 floor once a structured
# prober reaches its ceiling, must give every page of the pinned spaces
# the verdict of a reference that runs every prober, and the streaming
# page synthesis must render the pinned spaces to their absolute digests.
echo "==> detector parity + synthesis golden (LANGCRAWL_THREADS=1,4)"
for threads in 1 4; do
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl \
        --test detector_parity --test synthesis_golden
done

# Harness goldens, re-run under both generation thread counts: a bare
# repro_all at smoke scale must print every harness's section and write
# every result file exactly as the pinned per-harness digests say.
echo "==> harness goldens (LANGCRAWL_THREADS=1,4)"
for threads in 1 4; do
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-bench --test harness_goldens
done

# The timed crawl model (SchedConfig::timing) over seeds 42 and 1-7 at
# timing_ext's default 40k scale, about 0.3 s a seed. The step reads
# timing_ext's row of the repro_all dashboard, which names a failing
# harness's mismatched checks by number, and fails when the row is
# missing or reads CRASH, or when it names any of checks 1-3
# (politeness slows the crawl; connections scale while bandwidth-bound;
# extra connections buy nothing once politeness-bound). Check 4, the
# focused advantage under 1 s politeness, is left out: it passes on 6
# of these 8 seeds (it fails on seeds 4 and 6), a spread that ROADMAP
# item 3 owns.
echo "==> timing_ext checks 1-3 (seeds 42, 1-7)"
for seed in 42 1 2 3 4 5 6 7; do
    row=$(LANGCRAWL_SEED=$seed cargo run -q --release --offline -p langcrawl-bench --bin repro_all -- timing_ext |
        grep '^  timing_ext ' || true)
    case "$row" in
    *' pass '*) bad='' ;;
    *' FAIL '*) bad=$(printf '%s\n' "${row##*  checks }" | tr ',' '\n' | tr -d ' ' | grep -E '^[123]$' || true) ;;
    *) bad='no verdicts' ;;
    esac
    if [ -n "$bad" ]; then
        printf '    seed %s: %s\n' "$seed" "${row:-no timing_ext row}"
        exit 1
    fi
    echo "    seed $seed: ok"
done

# Determinism & safety lint: the in-tree static analyzer must find
# nothing unsuppressed in the workspace's own sources. The same run
# writes the JSON report and the resolved hot-path call graph
# (deterministic DOT + JSON adjacency) under target/ for CI to archive.
echo "==> langcrawl-lint (self-scan + call graph)"
mkdir -p target
cargo run -q --release --offline -p langcrawl-lint -- \
    --json --graph target/lint-graph . > target/lint-report.json || {
    cargo run -q --release --offline -p langcrawl-lint -- .
    exit 1
}

# Root marker resolution: --roots prints every lint:root marker with the
# fn it attached to (kept as an artifact) and exits nonzero if any marker
# attaches to no indexed fn. The self-scan above already fails on such a
# marker, and on one naming an unknown property: the index parses every
# comment containing `lint:root(`, and a marker it cannot resolve is an
# unsuppressible bad-root finding.
echo "==> langcrawl-lint --roots (root marker resolution guard)"
cargo run -q --release --offline -p langcrawl-lint -- --roots . > target/lint-roots.txt || {
    cat target/lint-roots.txt
    exit 1
}

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc with warnings denied: a broken intra-doc link, or a public doc
# linking a private item, fails here rather than in a published doc.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Benchmark smoke: perfbench builds against the library's crawl surface
# (Classifier, Frontier, CrawlEngine::run, Simulator::run) from outside
# the workspace, so a change that breaks it must fail here rather than
# in the benchmark run. Every workload runs for one second untraced and
# once traced, built with the command BENCHMARK.json declares; each run
# must end on a result line reporting a correct crawl and no failures.
# PageRank also runs on seed 353, whose ranks left the check's bound
# while sweep-capped refreshes dropped their pending work.
echo "==> perfbench smoke (every workload, --trace 0 and 1; pagerank seed 353)"
smoke() {
    last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds 1 --trace "$3" | tail -n 1)
    case "$last" in
    *'"correct": true'*'"failed": 0,'*) echo "    $1 --seed $2 --trace $3: ok" ;;
    *)
        echo "    $1 --seed $2 --trace $3 failed: $last"
        exit 1
        ;;
    esac
}
for workload in soft faults detector pagerank hits context; do
    for trace in 0 1; do
        smoke "$workload" 1 "$trace"
    done
done
smoke pagerank 353 0

# Snapshot-capture overhead: a 4-slot crawl capturing every 1000 ticks
# must cost at most 5% over the same crawl without capture (the bench
# exits nonzero when it does not), at smoke scale. It is the one timed
# gate left outside perfbench; the zero-allocation steady state is a
# test (crates/bench/tests/steady_state.rs) that the test step runs.
echo "==> cargo bench capture_overhead (smoke scale)"
LANGCRAWL_SCALE=20000 cargo bench -p langcrawl-bench --offline --bench capture_overhead

# Speed, judged on this machine: the parent commit's perfbench against the
# change's, three alternating pairs of 2-s runs on seeds 1-3 per workload.
# perf_pairs.sh fails a workload on a run that is not correct and on a clear
# loss: the change higher in every pair on crawl_vs_bfs or setup_s, with its
# median beyond the metric's bound in BENCHMARK.json. The parent is HEAD when
# tracked files have uncommitted changes, else HEAD~1 (in CI, the base of a
# pull request's merge commit). Untracked files do not count, so nothing an
# earlier step leaves behind can turn CI's comparison into HEAD against
# itself. Both sides are exported and built at paths of the same length,
# target/perf-parent and target/perf-change, because one source built at two
# path lengths differs in code layout and in timings. Same-length paths do
# not make the builds layout-neutral: two builds of one source at
# same-length paths have read 2.5-4% apart (soft, faults, pagerank,
# detector; 3 pairs of 10-s runs). So this step catches only a loss beyond
# the 25% bound in every pair; a claimed or feared change of a few percent
# needs 10-s pairs by hand plus a control against a second build of the
# parent. The change is the
# working tree's tracked files (`git stash create`, which touches neither the
# tree nor the stash list), or HEAD when they are clean; `git add` a new file
# to include it.
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then parent=HEAD; else parent=HEAD~1; fi
change=$(git stash create)
change=${change:-HEAD}
echo "==> perfbench pairs vs the parent ($parent; every workload, 3 pairs, 2 s)"
if git rev-parse -q --verify "$parent^{commit}" > /dev/null; then
    for side in parent change; do
        rm -rf "target/perf-$side"
        mkdir -p "target/perf-$side"
    done
    git archive "$parent" | tar -x -C target/perf-parent
    git archive "$change" | tar -x -C target/perf-change
    for side in parent change; do
        cargo build --release --offline --quiet --manifest-path "target/perf-$side/perfbench/Cargo.toml"
    done
    failed=''
    for workload in soft faults detector pagerank hits context; do
        sh scripts/perf_pairs.sh target/perf-parent/perfbench/target/release/langcrawl-perfbench \
            target/perf-change/perfbench/target/release/langcrawl-perfbench "$workload" 1 3 2 ||
            failed="$failed $workload"
    done
    if [ -n "$failed" ]; then
        echo "    paired runs failed on:$failed"
        exit 1
    fi
else
    echo "    no parent commit to build; paired runs skipped"
fi

echo "==> ci: all green"
