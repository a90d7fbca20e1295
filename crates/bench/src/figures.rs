//! Shared figure-check helpers. The panel layouts themselves live on
//! [`crate::experiment::ExperimentRun`].

/// The verdicts of a harness's shape checks, in the order it ran them:
/// check `n` is `self.0[n - 1]`. A harness returns them, so a driver
/// (the `repro_all` dashboard) reads them without scraping stdout.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<bool>);

impl Checks {
    /// Record one check's verdict and return the tick mark printed
    /// beside it.
    pub fn ok(&mut self, pass: bool) -> &'static str {
        self.0.push(pass);
        if pass {
            "OK"
        } else {
            "MISMATCH"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_records_verdicts_in_order() {
        let mut checks = Checks::default();
        assert_eq!(checks.ok(true), "OK");
        assert_eq!(checks.ok(false), "MISMATCH");
        assert_eq!(checks.ok(true), "OK");
        assert_eq!(checks.0, [true, false, true]);
    }
}
