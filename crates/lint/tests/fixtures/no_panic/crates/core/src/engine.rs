// P1 fixture: panicking calls in a no-panic path.
fn pick(v: &[u32]) -> u32 {
    *v.first().unwrap() // line 3: finding
}

fn must(x: Option<u32>) -> u32 {
    x.expect("present") // line 7: finding
}

fn boom() -> u32 {
    panic!("never") // line 11: finding
}

fn cannot_happen() -> u32 {
    unreachable!("proof lives far away") // line 15: finding
}

fn pick_checked(v: &[u32]) -> u32 {
    v.first().copied().unwrap_or(0) // unwrap_or is fine
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let v = [1u32];
        assert_eq!(*v.first().unwrap(), 1);
    }
}
