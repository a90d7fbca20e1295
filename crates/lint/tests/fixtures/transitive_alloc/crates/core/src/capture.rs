// P2T fixture: allocations reachable from an alloc-free root, with an
// edge-severing suppression on the cold branch.

// lint:root(alloc-free)
fn capture(out: &mut Vec<u8>) {
    let _ = refill();
    stamp(out);
    // lint:allow(no-alloc-transitive): diagnostics branch, cold by construction
    let _ = cold_path();
}

fn refill() -> Vec<u64> {
    Vec::new()
}

fn stamp(out: &mut Vec<u8>) {
    out.extend_from_slice(&[1, 2]);
}

fn cold_path() -> String {
    format!("cold")
}
