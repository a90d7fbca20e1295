//! `langcrawl-lint` CLI — scan the workspace, print findings, exit
//! nonzero when any survive.
//!
//! ```text
//! langcrawl-lint [--json] [--list] [--graph DIR] [--roots] [ROOT]
//! ```
//!
//! * `--json`      — machine-readable report (the CI artifact format);
//! * `--list`      — print the lint table and exit;
//! * `--graph DIR` — also write the hot-path call graph (deterministic
//!   `callgraph.dot` + `callgraph.json`) under `DIR`;
//! * `--roots`     — print every `lint:root` marker and the fn it
//!   resolved to, then exit (nonzero if any marker failed to attach);
//! * `ROOT`        — directory to scan (default: the current directory).

use langcrawl_lint::{graph::Graph, index::Index};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut roots_only = false;
    let mut graph_dir: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--roots" => roots_only = true,
            "--graph" => match args.next() {
                Some(dir) => graph_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("langcrawl-lint: --graph needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: langcrawl-lint [--json] [--list] [--graph DIR] [--roots] [ROOT]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("langcrawl-lint: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
            path => root = Some(PathBuf::from(path)),
        }
    }

    if list {
        println!("langcrawl-lint passes:");
        println!(
            "  D1  wall-clock           Instant/SystemTime::now outside crates/bench, perfbench"
        );
        println!("  D2  unordered-iter       HashMap/HashSet iteration whose order can leak");
        println!("  D3  rng-stream           duplicated or non-literal Rng::stream domains");
        println!("  D4  event-bits           colliding/shadowed core::event interest bits");
        println!("  S1  safety-comment       `unsafe` without a `// SAFETY:` comment");
        println!("  P1  no-panic             unwrap/expect/panic!/todo! in hot paths");
        println!("  P1T no-panic-transitive  panic sites reachable from a lint:root(panic-free)");
        println!("  P2T no-alloc-transitive  alloc sites reachable from a lint:root(alloc-free)");
        println!("  T1  test-only-pub        library pub fn that no non-test code calls or names");
        println!("  --  bad-root             lint:root marker that resolves to no indexed fn");
        println!("suppression: // lint:allow(<id>): <reason>   (bad-root is not suppressible)");
        println!("roots:       // lint:root(panic-free[, alloc-free]) above a fn");
        return ExitCode::SUCCESS;
    }

    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let sources = match langcrawl_lint::load_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("langcrawl-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if roots_only {
        let idx = Index::build(&sources);
        let mut ok = true;
        for r in &idx.roots {
            let mut props = Vec::new();
            if r.props & langcrawl_lint::index::ROOT_PANIC_FREE != 0 {
                props.push("panic-free");
            }
            if r.props & langcrawl_lint::index::ROOT_ALLOC_FREE != 0 {
                props.push("alloc-free");
            }
            match &r.target {
                Some(t) => println!("{}:{}: {} -> {t}", r.path, r.line, props.join(",")),
                None => {
                    println!("{}:{}: {} -> UNRESOLVED", r.path, r.line, props.join(","));
                    ok = false;
                }
            }
        }
        if !idx.findings.is_empty() {
            ok = false;
            for f in &idx.findings {
                eprintln!("{}:{}: [{}] {}", f.path, f.line, f.lint, f.message);
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let report = langcrawl_lint::scan_sources(&sources);

    if let Some(dir) = graph_dir {
        let idx = Index::build(&sources);
        let allows = langcrawl_lint::edge_allows(&sources);
        let g = Graph::build(&idx, &allows);
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("callgraph.dot"), g.to_dot()))
            .and_then(|()| std::fs::write(dir.join("callgraph.json"), g.to_json()))
        {
            eprintln!(
                "langcrawl-lint: cannot write graph under {}: {e}",
                dir.display()
            );
            return ExitCode::from(2);
        }
    }

    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
