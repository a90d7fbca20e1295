//! A TIS-620 byte model of Thai text.
//!
//! TIS-620 is a single-byte encoding: Thai characters occupy 0xA1..=0xFB
//! (with unassigned holes), laid out so that byte `b` corresponds exactly
//! to Unicode scalar `U+0E01 + (b - 0xA1)` for the assigned range —
//! Unicode's Thai block was copied from TIS-620. That identity makes both
//! the encoder and the UTF-8 path table-free.
//!
//! The single-byte prober needs more than "bytes are in range": Latin-1
//! text full of accented letters also lives in 0xC0..=0xFF. What separates
//! Thai is its *orthography*: above-vowels, below-vowels and tone marks are
//! combining characters that can only follow a consonant. The prober
//! scores byte pairs against those rules (the same idea as Mozilla's
//! Thai "language model" tables, reduced to character classes).

/// Character class of a TIS-620 byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThaiClass {
    /// Consonants ก..ฮ (0xA1..=0xCE).
    Consonant,
    /// Following vowels ะ ั า ำ (0xD0..=0xD3) and sara a family.
    FollowVowel,
    /// Below/above vowels ิ ี ึ ื ุ ู (0xD4..=0xD9) — combining.
    AboveBelowVowel,
    /// Thai currency/symbol ฿ ฯ ๆ and similar (0xCF, 0xDA, 0xE6).
    Sign,
    /// Leading vowels เ แ โ ใ ไ (0xE0..=0xE4).
    LeadVowel,
    /// ฤ ฦ-style independents and lakkhangyao (0xE5).
    Independent,
    /// Tone marks and diacritics ่ ้ ๊ ๋ ็ ์ (0xE7..=0xEE) — combining.
    ToneMark,
    /// Thai digits ๐..๙ (0xF0..=0xF9).
    Digit,
    /// Fongman/angkhankhu ๏ ๚ ๛ (0xEF, 0xFA, 0xFB).
    Punct,
    /// Not an assigned TIS-620 Thai byte.
    NotThai,
}

/// Classify a raw byte as TIS-620 Thai content.
pub fn classify(b: u8) -> ThaiClass {
    match b {
        0xA1..=0xCE => ThaiClass::Consonant,
        0xCF => ThaiClass::Sign, // ฯ paiyannoi
        0xD0..=0xD3 => ThaiClass::FollowVowel,
        0xD4..=0xD9 => ThaiClass::AboveBelowVowel,
        0xDA => ThaiClass::ToneMark, // ฺ phinthu (below)
        0xDF => ThaiClass::Sign,     // ฿ baht
        0xE0..=0xE4 => ThaiClass::LeadVowel,
        0xE5 => ThaiClass::Independent,     // ๅ lakkhangyao
        0xE6 => ThaiClass::Sign,            // ๆ maiyamok
        0xE7..=0xEE => ThaiClass::ToneMark, // ็ ่ ้ ๊ ๋ ์ ํ ๎
        0xEF => ThaiClass::Punct,           // ๏ fongman
        0xF0..=0xF9 => ThaiClass::Digit,
        0xFA..=0xFB => ThaiClass::Punct, // ๚ ๛
        _ => ThaiClass::NotThai,
    }
}

/// Is this byte an assigned TIS-620 Thai code point?
#[inline]
pub fn is_thai_byte(b: u8) -> bool {
    !matches!(classify(b), ThaiClass::NotThai) && !matches!(b, 0xDB..=0xDE)
}

/// TIS-620 byte → Unicode scalar (identity layout with the Thai block).
/// Returns `None` for bytes outside the assigned Thai range.
///
/// ```
/// use langcrawl_charset::thai::to_unicode;
/// assert_eq!(to_unicode(0xA1), Some('ก')); // U+0E01 KO KAI
/// assert_eq!(to_unicode(0xDB), None);      // unassigned hole
/// ```
pub fn to_unicode(b: u8) -> Option<char> {
    if !is_thai_byte(b) {
        return None;
    }
    char::from_u32(0x0E01 + (b as u32 - 0xA1))
}

/// Unicode scalar → TIS-620 byte, for Thai-block characters.
// lint:allow(test-only-pub): crates/charset/tests/proptests.rs round-trips the Thai block with it
pub fn from_unicode(c: char) -> Option<u8> {
    let cp = c as u32;
    if (0x0E01..=0x0E5B).contains(&cp) {
        let b = (cp - 0x0E01 + 0xA1) as u8;
        if is_thai_byte(b) {
            return Some(b);
        }
    }
    None
}

/// Whether `b` is valid under the stated Thai-family charset. The three
/// family members differ only at the edges:
///
/// * TIS-620: Thai range only (plus ASCII, handled by the caller).
/// * ISO-8859-11: TIS-620 plus NBSP at 0xA0.
/// * Windows-874: TIS-620 plus C1-area punctuation (0x80 euro, 0x85
///   ellipsis, 0x91..=0x97 quotes/dashes/bullet).
pub fn valid_in_family(b: u8, charset: crate::Charset) -> bool {
    use crate::Charset;
    if b < 0x80 {
        return true;
    }
    match charset {
        Charset::Tis620 => is_thai_byte(b),
        Charset::Iso885911 => is_thai_byte(b) || b == 0xA0,
        Charset::Windows874 => {
            is_thai_byte(b) || b == 0xA0 || b == 0x80 || b == 0x85 || (0x91..=0x97).contains(&b)
        }
        _ => false,
    }
}

/// Score a transition between two consecutive Thai bytes: +1 for pairs
/// Thai orthography produces all the time, -1 for pairs it forbids, 0 for
/// neutral. The prober sums this over the document.
pub fn pair_score(prev: u8, cur: u8) -> i32 {
    use ThaiClass::*;
    let (p, c) = (classify(prev), classify(cur));
    match (p, c) {
        // Combining marks ride on consonants (or stack: consonant + vowel
        // + tone is the canonical syllable).
        (Consonant, AboveBelowVowel) => 2,
        (Consonant, ToneMark) => 1,
        (AboveBelowVowel, ToneMark) => 2,
        (Consonant, FollowVowel) => 1,
        (LeadVowel, Consonant) => 2,
        (Consonant, Consonant) => 1,
        (ToneMark, Consonant) | (FollowVowel, Consonant) => 1,
        (AboveBelowVowel, Consonant) => 1,
        (Consonant, LeadVowel) => 1,
        (Digit, Digit) => 1,
        // A combining mark with nothing to combine with is (nearly)
        // impossible in real text.
        (NotThai, AboveBelowVowel) | (NotThai, ToneMark) => -4,
        (LeadVowel, ToneMark) | (LeadVowel, AboveBelowVowel) => -2,
        (ToneMark, ToneMark) => -3,
        (AboveBelowVowel, AboveBelowVowel) => -2,
        (Digit, ToneMark) | (Punct, ToneMark) => -3,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Charset;

    #[test]
    fn unicode_identity_layout() {
        // ก (U+0E01) is 0xA1; ๙ (U+0E59 Thai digit nine) is 0xF9.
        assert_eq!(to_unicode(0xA1), Some('\u{0E01}'));
        assert_eq!(to_unicode(0xF9), Some('\u{0E59}'));
        assert_eq!(from_unicode('\u{0E01}'), Some(0xA1));
        assert_eq!(from_unicode('\u{0E59}'), Some(0xF9));
    }

    #[test]
    fn round_trip_all_assigned() {
        for b in 0x80..=0xFFu8 {
            if is_thai_byte(b) {
                let c = to_unicode(b).unwrap();
                assert_eq!(from_unicode(c), Some(b), "byte {b:02X}");
            } else {
                assert_eq!(to_unicode(b), None, "byte {b:02X}");
            }
        }
    }

    #[test]
    fn holes_are_unassigned() {
        for b in [0xDB, 0xDC, 0xDD, 0xDE, 0xFC, 0xFD, 0xFE, 0xFF] {
            assert!(!is_thai_byte(b), "{b:02X}");
        }
        // 0xDF (baht) and 0xA1 are assigned.
        assert!(is_thai_byte(0xDF));
        assert!(is_thai_byte(0xA1));
    }

    #[test]
    fn family_validity() {
        // NBSP: only ISO-8859-11 and Windows-874.
        assert!(!valid_in_family(0xA0, Charset::Tis620));
        assert!(valid_in_family(0xA0, Charset::Iso885911));
        assert!(valid_in_family(0xA0, Charset::Windows874));
        // Euro sign 0x80: Windows-874 only.
        assert!(!valid_in_family(0x80, Charset::Tis620));
        assert!(!valid_in_family(0x80, Charset::Iso885911));
        assert!(valid_in_family(0x80, Charset::Windows874));
        // ASCII is fine everywhere.
        assert!(valid_in_family(b'a', Charset::Tis620));
        // Unassigned hole is invalid everywhere.
        assert!(!valid_in_family(0xDB, Charset::Windows874));
    }

    #[test]
    fn pair_scores_reward_canonical_syllables() {
        // ก + ิ (consonant + above vowel) strongly positive.
        assert!(pair_score(0xA1, 0xD4) > 0);
        // เ + ก (lead vowel + consonant) positive.
        assert!(pair_score(0xE0, 0xA1) > 0);
        // Tone mark after ASCII: strongly negative.
        assert!(pair_score(b' ', 0xE8) < 0);
        // Two tone marks in a row: negative.
        assert!(pair_score(0xE8, 0xE9) < 0);
    }
}
