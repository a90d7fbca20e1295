// A bin is a caller, and its own `pub fn`s are never flagged.
pub fn main() {
    let _ = fixture_core::a_bin_calls(&[1, 2]);
}
