// P1T fixture: a leaf suppression keeps the whole chain quiet.

// lint:root(panic-free)
fn deliver(x: Option<u64>) -> u64 {
    fetch(x)
}

fn fetch(x: Option<u64>) -> u64 {
    // lint:allow(no-panic-transitive): caller seeds `Some` on every path
    x.unwrap()
}
