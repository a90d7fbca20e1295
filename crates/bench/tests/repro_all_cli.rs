//! `repro_all`'s failure paths, run as a subprocess: a result file that
//! cannot be written is named on stderr without failing the run, a
//! malformed setting fails the run before any harness starts, and an
//! unknown harness name fails with the list of known ones.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run `repro_all args` with every `LANGCRAWL_*` setting it reads
/// removed, then `env` applied, writing results under `results`.
fn repro_all(args: &[&str], env: &[(&str, &str)], results: &Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro_all"));
    for var in [
        "LANGCRAWL_SCALE",
        "LANGCRAWL_SEED",
        "LANGCRAWL_SNAPSHOT_EVERY",
        "LANGCRAWL_SNAPSHOT_DIR",
        "LANGCRAWL_THREADS",
    ] {
        cmd.env_remove(var);
    }
    cmd.args(args)
        .envs(env.iter().copied())
        .env("LANGCRAWL_RESULTS_DIR", results)
        .output()
        .expect("repro_all runs")
}

/// A fresh scratch directory of this test binary's own.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unwritable_result_files_are_named_and_the_run_still_passes() {
    let dir = scratch("repro_all_unwritable");
    std::fs::write(dir.join("file"), b"").unwrap();
    let results = dir.join("file/results");
    let out = repro_all(
        &["fig3", "fault_sensitivity", "parallelism_sweep"],
        &[("LANGCRAWL_SCALE", "8000")],
        &results,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for file in [
        "fig3_breadth-first.csv",
        "fig3_hard-focused.csv",
        "fig3_soft-focused.csv",
        "fig3_harvest.gp",
        "fig3_coverage.gp",
        "fault_sensitivity.csv",
        "parallelism_sweep.csv",
        "parallelism_sweep_curves.csv",
    ] {
        let named = format!("cannot write {}: ", results.join(file).display());
        assert!(stderr.contains(&named), "no `{named}` on stderr:\n{stderr}");
    }
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
}

#[test]
fn a_malformed_setting_fails_before_any_harness_runs() {
    let results = scratch("repro_all_malformed");
    for (var, value, must) in [
        ("LANGCRAWL_SEED", "4x", "an unsigned"),
        ("LANGCRAWL_SCALE", "8k", "an unsigned"),
        ("LANGCRAWL_SNAPSHOT_EVERY", "1k", "an unsigned"),
        ("LANGCRAWL_THREADS", "4x", "a positive"),
        ("LANGCRAWL_THREADS", "0", "a positive"),
    ] {
        let mut env = vec![(var, value)];
        if var != "LANGCRAWL_SCALE" {
            env.push(("LANGCRAWL_SCALE", "8000"));
        }
        let out = repro_all(&["fig3"], &env, &results);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var}={value} ran:\n{stderr}");
        let named = format!("{var} must be {must} integer, got \"{value}\"");
        assert!(stderr.contains(&named), "no `{named}` on stderr:\n{stderr}");
        assert!(
            out.stdout.is_empty(),
            "{var}={value} printed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn an_unknown_harness_fails_and_lists_the_known_ones() {
    let results = scratch("repro_all_unknown");
    let out = repro_all(&["fig3", "fig33"], &[], &results);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("unknown harness `fig33`"), "{stderr}");
    assert!(stderr.contains("table1 table3 fig3"), "{stderr}");
    assert!(out.stdout.is_empty(), "a harness ran");
}
