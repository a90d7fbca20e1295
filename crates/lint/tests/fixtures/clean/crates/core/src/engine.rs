// Clean fixture: a P1 path with nothing to report.
fn step(x: u32) -> u32 {
    x.saturating_add(1)
}
