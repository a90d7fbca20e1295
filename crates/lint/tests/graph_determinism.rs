//! The `--graph` artifact must be byte-identical across consecutive
//! runs and across `LANGCRAWL_THREADS` settings, and the CLI must exit
//! clean on the workspace's own sources (the CI gate, end to end).

use std::path::{Path, PathBuf};
use std::process::Command;

fn run_graph(dir: &Path, threads: &str) -> (bool, Vec<u8>, Vec<u8>) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_langcrawl-lint"))
        .arg("--graph")
        .arg(dir)
        .arg(&root)
        .env("LANGCRAWL_THREADS", threads)
        .output()
        .expect("lint binary must run");
    let dot = std::fs::read(dir.join("callgraph.dot")).expect("callgraph.dot written");
    let json = std::fs::read(dir.join("callgraph.json")).expect("callgraph.json written");
    (out.status.success(), dot, json)
}

#[test]
fn graph_output_is_byte_identical_across_runs_and_thread_counts() {
    let base = std::env::temp_dir().join(format!("langcrawl-lint-graph-{}", std::process::id()));
    let runs = [
        (base.join("a"), "1"),
        (base.join("b"), "1"),
        (base.join("c"), "4"),
    ];
    let mut outputs = Vec::new();
    for (dir, threads) in &runs {
        std::fs::create_dir_all(dir).expect("temp dir");
        outputs.push(run_graph(dir, threads));
    }
    let _ = std::fs::remove_dir_all(&base);

    let (clean, dot, json) = &outputs[0];
    // The gate: the workspace's own sources scan clean.
    assert!(*clean, "self-scan must exit clean");
    for (other_clean, other_dot, other_json) in &outputs[1..] {
        assert!(*other_clean);
        assert_eq!(dot, other_dot, "DOT must be byte-identical");
        assert_eq!(json, other_json, "JSON must be byte-identical");
    }

    // The graph actually covers the hot path: every root fn appears.
    let dot = String::from_utf8(dot.clone()).expect("dot is UTF-8");
    for root_fn in [
        "CrawlEngine::sched_loop",
        "CrawlEngine::run_with_scratch",
        "CrawlEngine::resolve",
        "UrlQueue::push_all",
        "UrlQueue::pop",
        "ShardedFrontier::pop_inner",
        "ShardedFrontier::push_all",
        "encode_snapshot_into",
        "LinkGraph::record_page",
        "RankState::refresh",
        "HitsState::fire",
        "LayerIndex::absorb",
    ] {
        assert!(dot.contains(root_fn), "graph must cover `{root_fn}`");
    }
    assert!(dot.contains("doubleoctagon"), "roots must be marked");
}
