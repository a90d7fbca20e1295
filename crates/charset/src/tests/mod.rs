//! Test-only code shared by the crate's unit tests: the coding-scheme
//! verifiers the probers and encoders are held to ([`sm`]), and fixed
//! demo phrases for the prober, detector and encoder tests.

use crate::dbcs::DbToken;
use crate::encode::{encode_thai, thai_demo_tokens};
use crate::kuten::Kuten;
use crate::types::Charset;

pub(crate) mod sm;

/// Fixed Korean demo phrase tokens (hangul rows, a few ASCII).
pub(crate) fn korean_demo_tokens() -> Vec<DbToken> {
    let c = |ku, ten| DbToken::Cell(Kuten::new(ku, ten).unwrap());
    vec![
        c(16, 1),
        c(22, 47),
        c(30, 12),
        c(18, 80),
        DbToken::Ascii(b' '),
        c(35, 5),
        c(40, 94),
        c(17, 33),
        DbToken::Ascii(b' '),
        c(25, 60),
        c(28, 9),
    ]
}

/// Fixed Chinese demo phrase tokens (level-1 and level-2 hanzi rows).
pub(crate) fn chinese_demo_tokens() -> Vec<DbToken> {
    let c = |ku, ten| DbToken::Cell(Kuten::new(ku, ten).unwrap());
    vec![
        c(16, 1),
        c(45, 30),
        c(53, 88),
        c(20, 15),
        c(60, 4), // level-2 tail — the Chinese signature
        c(33, 71),
        DbToken::Ascii(b' '),
        c(70, 22),
        c(48, 48),
        c(19, 3),
        c(81, 90),
    ]
}

/// The Thai demo phrase encoded as TIS-620 bytes.
pub(crate) fn encode_thai_demo() -> Vec<u8> {
    encode_thai(&thai_demo_tokens(), Charset::Tis620)
}
