// test-only-pub fixture: a library crate's public fns and their users.

/// Only the unit test below calls this: flagged.
pub fn only_tests_call() -> u32 {
    1
}

/// The bin calls this: clean.
pub fn a_bin_calls(xs: &[u32]) -> Vec<u32> {
    xs.iter().copied().map(named_as_pointer).collect()
}

/// Named only as a fn pointer, never called by name: clean.
pub fn named_as_pointer(x: u32) -> u32 {
    x + 1
}

pub trait Gauge {
    fn read(&self) -> u32;
}

pub struct Meter;

impl Gauge for Meter {
    // A trait-impl method that nothing calls: clean.
    fn read(&self) -> u32 {
        3
    }
}

// lint:allow(test-only-pub): the README's quick start shows it
pub fn documented_only() -> u32 {
    4
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_tests_call(), 1);
    }
}
