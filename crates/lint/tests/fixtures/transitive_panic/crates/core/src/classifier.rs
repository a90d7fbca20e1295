// P1T fixture: a panic one hop from the root.

// lint:root(panic-free)
fn classify(x: Option<u64>) -> u64 {
    one_hop(x)
}

fn one_hop(x: Option<u64>) -> u64 {
    x.unwrap()
}
