// D1 fixture: wall-clock reads in simulation code.
use std::time::Instant;

fn tick() -> Instant {
    Instant::now() // line 5: finding
}

fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now() // line 9: finding
}

fn profiled() -> Instant {
    // lint:allow(wall-clock): fixture demonstrating a justified suppression
    Instant::now()
}

#[cfg(test)]
mod tests {
    #[test]
    fn timed() {
        let _ = std::time::Instant::now(); // test region: exempt
    }
}
