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
# end to end, not merely self-consistent.
echo "==> scheduler conformance + shard parity (LANGCRAWL_THREADS=1,4)"
for threads in 1 4; do
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-core \
        --test sched_conformance --test frontier_accounting
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-core \
        --test proptests sharded_frontier
done

# Checkpoint/resume parity, re-run under both generation thread counts
# like the conformance suites: snapshot at tick T -> drop -> resume must
# be bit-identical to the uninterrupted run for every pinned cell, and
# the codec must reject every corruption with a typed error. The suites
# dump each snapshot they resume from into LANGCRAWL_SNAPSHOT_DIR, so a
# parity failure leaves its fixture behind (CI uploads the directory as
# an artifact on failure).
echo "==> resume parity + snapshot codec (LANGCRAWL_THREADS=1,4)"
mkdir -p target/snapshot-fixtures
for threads in 1 4; do
    LANGCRAWL_THREADS=$threads LANGCRAWL_SNAPSHOT_DIR=target/snapshot-fixtures \
        cargo test -q --offline -p langcrawl-core \
        --test resume_parity --test snapshot_codec
done

# Link-analysis parity, re-run under both generation thread counts: the
# delta-seeded PageRank refresh and the flat HITS firing must produce
# CrawlReports identical to their full-recompute references on the
# pinned cells, the ranks and the three link strategies' reports must
# match their pinned digests, and the forward-only crawl-graph store
# must match its naive model, regardless of how many threads generated
# the web space.
echo "==> link-analysis parity + crawl-graph store properties (LANGCRAWL_THREADS=1,4)"
for threads in 1 4; do
    LANGCRAWL_THREADS=$threads cargo test -q --offline -p langcrawl-core \
        --test link_analysis_parity --test linkgraph_props
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

# Root marker typo guard: --roots exits nonzero if any lint:root marker
# fails to attach to an indexed fn, and the grep cross-check catches a
# marker the parser never even saw. The lint crate itself is excluded —
# its unit tests embed marker text in raw strings — as are the fixture
# trees, which exercise the lint rather than carry workspace contracts.
echo "==> langcrawl-lint --roots (root marker resolution guard)"
cargo run -q --release --offline -p langcrawl-lint -- --roots . > target/lint-roots.txt
declared=$(grep -rE --include='*.rs' --exclude-dir=fixtures --exclude-dir=lint \
    -h '^[[:space:]]*// lint:root\(' crates | wc -l)
resolved=$(wc -l < target/lint-roots.txt)
if [ "$declared" -ne "$resolved" ]; then
    echo "    declared $declared root markers but the resolver saw $resolved:"
    cat target/lint-roots.txt
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

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

# The paired-run script parses perfbench's result line. One pair with the
# perfbench just built on both sides makes a change to that line's format
# fail here rather than in the next performance comparison.
echo "==> perf_pairs.sh smoke (hits, 1 pair, --seconds 1)"
perfbench=perfbench/target/release/langcrawl-perfbench
sh scripts/perf_pairs.sh "$perfbench" "$perfbench" hits 1 1 1

# Steady-state allocation gate: the same microbench compiled with the
# counting allocator must observe ZERO allocations per fetch once the
# engine scratch is warm. This run deliberately omits --json — the
# counting allocator itself perturbs throughput, so its numbers are
# not comparable and must not overwrite the archival trajectory.
echo "==> cargo bench microbench --features count-allocs (steady-state gate)"
LANGCRAWL_SCALE=20000 cargo bench -p langcrawl-bench --offline \
    --features count-allocs --bench microbench

# Smoke-scale bench trajectory: exercises the parallel-generation
# parity, sink-overhead, fault-path-overhead and snapshot-overhead
# gates (the bench exits nonzero on a regression) and leaves
# BENCH_<sha>.json at the repo root for archival.
echo "==> cargo bench microbench --json (smoke scale)"
LANGCRAWL_SCALE=20000 cargo bench -p langcrawl-bench --offline --bench microbench -- --json

# Trajectory regression gate: compare the fresh BENCH_<sha>.json against
# the most recently committed predecessor. bench_compare fails the build
# if queue, detector, or simulator throughput drops more than 10%.
echo "==> bench_compare (fresh vs committed trajectory)"
fresh="BENCH_$(git rev-parse --short HEAD).json"
baseline=""
for f in $(git ls-files 'BENCH_*.json'); do
    [ "$f" = "$fresh" ] && continue
    if [ -z "$baseline" ] || [ "$(git log -1 --format=%ct -- "$f")" -gt "$(git log -1 --format=%ct -- "$baseline")" ]; then
        baseline=$f
    fi
done
if [ -n "$baseline" ] && [ -f "$fresh" ]; then
    cargo run -q --release --offline -p langcrawl-bench --bin bench_compare -- "$fresh" "$baseline"
elif [ -f "$fresh" ]; then
    # No committed predecessor: the gate itself prints the explicit
    # "no baseline" notice (and exits 0), so the skip is always visible.
    cargo run -q --release --offline -p langcrawl-bench --bin bench_compare -- "$fresh"
else
    echo "    fresh trajectory $fresh missing; comparison skipped"
fi

echo "==> ci: all green"
