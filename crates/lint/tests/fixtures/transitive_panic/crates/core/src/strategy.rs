// P1T fixture: generic dispatch links every impl of `next_page`, so
// the panicking impl is reachable even though the calm one might be
// the only one ever instantiated.
pub trait Strategy {
    fn next_page(&mut self) -> u64;
}
pub struct Calm;
impl Strategy for Calm {
    fn next_page(&mut self) -> u64 {
        7
    }
}
pub struct Edgy {
    slots: Vec<u64>,
}
impl Strategy for Edgy {
    fn next_page(&mut self) -> u64 {
        self.slots[3]
    }
}

// lint:root(panic-free)
fn drive<S: Strategy>(s: &mut S) -> u64 {
    s.next_page()
}
