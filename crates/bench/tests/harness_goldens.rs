//! Pins what every reproduction harness prints and writes. A bare
//! `repro_all` runs all 19 harnesses at smoke scale, seed 42; each
//! section of its stdout, from its `--- <name> ---` line to the next, is
//! hashed with FNV-1a-64 one line (plus `\n`) at a time. A `[csv]` or
//! `[gnuplot]` line contributes the written file's name and bytes in
//! place of its path, so the digest covers every result file and does
//! not depend on where the results directory is. The dashboard after
//! `== dashboard ==` carries seconds and is not hashed; it must only be
//! free of crashes. The verdicts are not pinned (at this scale
//! `graph_stats`' locality check reads MISMATCH): the output is.

use std::path::Path;
use std::process::Command;

/// Each harness's digest at `LANGCRAWL_SCALE=8000`, `LANGCRAWL_SEED=42`,
/// in dashboard order.
const GOLDENS: &[(&str, u64)] = &[
    ("table1", 0xbaae1078f21e0781),
    ("table3", 0x17a80172bdd025f4),
    ("fig3", 0x0528ae88c27095f9),
    ("fig4", 0x7fbb006499621586),
    ("fig5", 0x430c201b6957b633),
    ("fig6", 0x9416f7fd3b2a058f),
    ("fig7", 0xe22f45e5822687a9),
    ("graph_stats", 0x033b2e53a0e06a5d),
    ("ablation_locality", 0xc28e1eb0e6526b36),
    ("ablation_classifier", 0xe0ad30ee4cfe697c),
    ("ablation_seeds", 0x17fb3b3ea8b10a58),
    ("ablation_ordering", 0x617a854e53ab97a7),
    ("ablation_tld", 0xefcec371ba8f48aa),
    ("dataset_collection", 0x54277bbd9a75a8b4),
    ("fault_sensitivity", 0xecd2248c0fb259a1),
    ("parallelism_sweep", 0xde6284ea94e54d92),
    ("timing_ext", 0x42580cd6e6041f7c),
    ("extensions", 0x41463fed6302c390),
    ("wider_languages", 0xf9ca21042504b64b),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// `(name, digest)` of every `--- <name> ---` section of `sections`.
fn digests(sections: &str) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for line in sections.lines() {
        if let Some(name) = line
            .strip_prefix("--- ")
            .and_then(|l| l.strip_suffix(" ---"))
        {
            out.push((name.to_string(), FNV_OFFSET));
        }
        let Some((_, hash)) = out.last_mut() else {
            continue; // the banner above the first section
        };
        let written = ["  [csv] ", "  [gnuplot] "]
            .iter()
            .find_map(|tag| Some((*tag, line.strip_prefix(tag)?)));
        match written {
            Some((tag, path)) => {
                let path = Path::new(path);
                let bytes = std::fs::read(path)
                    .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
                fnv(hash, tag.as_bytes());
                fnv(hash, path.file_name().unwrap().as_encoded_bytes());
                fnv(hash, b"\n");
                fnv(hash, &bytes);
            }
            None => {
                fnv(hash, line.as_bytes());
                fnv(hash, b"\n");
            }
        }
    }
    out
}

#[test]
fn every_harness_prints_and_writes_its_pinned_output() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("harness_goldens");
    let _ = std::fs::remove_dir_all(&results);
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .env("LANGCRAWL_SCALE", "8000")
        .env("LANGCRAWL_SEED", "42")
        .env("LANGCRAWL_RESULTS_DIR", &results)
        .env_remove("LANGCRAWL_SNAPSHOT_EVERY")
        .env_remove("LANGCRAWL_SNAPSHOT_DIR")
        .output()
        .expect("repro_all runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let (sections, dashboard) = stdout.split_once("== dashboard ==").unwrap_or_else(|| {
        panic!(
            "no dashboard; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    assert!(
        !dashboard.contains("CRASH"),
        "a harness crashed:{dashboard}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let got = digests(sections);
    let moved: Vec<&str> = GOLDENS
        .iter()
        .filter(|&&(name, pinned)| !got.iter().any(|(n, d)| n == name && *d == pinned))
        .map(|&(name, _)| name)
        .collect();
    assert!(moved.is_empty(), "output moved: {}", moved.join(", "));
    assert_eq!(got.len(), GOLDENS.len(), "sections: {got:?}");
}
