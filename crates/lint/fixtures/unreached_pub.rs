// Fixture: unreached-pub. Public items that nothing outside the tests
// reaches, one of them kept with its reason, and items never collected.

// -- unreached: named only at the definition, an impl or a re-export -------
pub fn only_defined() {}

pub struct OnlyImplemented;

impl OnlyImplemented {
    pub fn only_tested() -> u32 {
        7
    }
}

impl Default for OnlyImplemented {
    fn default() -> Self {
        Self
    }
}

pub const ONLY_RE_EXPORTED: u32 = 3;

pub use self::ONLY_RE_EXPORTED as RENAMED;

// -- suppressed: kept, saying what reaches it -------------------------------
// lint:allow(unreached-pub): a daemon command, sent by operators
pub fn kept_for_a_reason() {}

// -- never collected: restricted visibility ---------------------------------
pub(crate) fn restricted() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_do_not_reach() {
        only_defined();
        assert_eq!(OnlyImplemented::only_tested(), ONLY_RE_EXPORTED + 4);
    }
}
