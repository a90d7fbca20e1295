// S1 fixture: unsafe blocks with and without justification.
fn read(p: *const u8) -> u8 {
    unsafe { *p } // line 3: finding — unjustified
}

fn read_ok(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads (fixture)
    unsafe { *p }
}
