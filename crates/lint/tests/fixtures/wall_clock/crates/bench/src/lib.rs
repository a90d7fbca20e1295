// Bench crate: wall-clock reads are its whole purpose — exempt.
use std::time::Instant;

fn measure() -> Instant {
    Instant::now()
}
