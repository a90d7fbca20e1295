//! The acceptance gate the binary enforces in CI, as a test: the
//! workspace's own sources must scan clean.

use std::path::PathBuf;

#[test]
fn self_scan_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = langcrawl_lint::load_sources(&root).expect("workspace must be readable");
    let report = langcrawl_lint::scan_sources(&sources);
    assert!(
        report.is_clean(),
        "the workspace must lint clean:\n{}",
        report.to_text()
    );
    // Sanity: the walk really covered the workspace, and the allows it
    // honored are the deliberate, reasoned ones.
    assert!(report.files_scanned > 100, "{} files", report.files_scanned);
    assert!(report.allows_used >= 4, "{} allows", report.allows_used);
}
