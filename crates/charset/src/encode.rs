//! Encoders: token streams → bytes in a chosen charset.
//!
//! The web-space generator synthesizes page text as *token streams* —
//! language-level units that are independent of any byte encoding — and
//! then encodes them into the page's ground-truth charset. That gives the
//! detector honest work to do: the same Japanese document can be served as
//! EUC-JP, Shift_JIS, ISO-2022-JP or UTF-8 bytes, and the detector must
//! recover which.
//!
//! Each encoder ([`encode_japanese`], [`encode_thai`] and
//! [`crate::dbcs`]'s Korean and Chinese ones) has an `_into` form that
//! appends a whole token slice to a caller's buffer, so page synthesis can
//! encode text straight into a larger document.

use crate::kuten::Kuten;
use crate::thai;
use crate::types::Charset;

/// One unit of Japanese text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JaToken {
    /// A JIS X 0208 character.
    K(Kuten),
    /// A 7-bit ASCII byte (markup, Latin words, spaces).
    Ascii(u8),
}

/// One unit of Thai text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThToken {
    /// A Thai character, identified by its TIS-620 byte.
    Thai(u8),
    /// A 7-bit ASCII byte.
    Ascii(u8),
}

/// Encode a Japanese token stream into one of the charsets that can carry
/// it: the three Table 1 encodings or UTF-8.
///
/// # Panics
/// Panics if `charset` cannot represent Japanese text (programmer error —
/// the generator only pairs Japanese text with Japanese-capable charsets).
pub fn encode_japanese(tokens: &[JaToken], charset: Charset) -> Vec<u8> {
    let mut out = Vec::with_capacity(tokens.len() * 2);
    encode_japanese_into(tokens, charset, &mut out);
    out
}

/// [`encode_japanese`], appended to `out`. ISO-2022-JP text starts and
/// ends in ASCII, so each call stands alone.
///
/// # Panics
/// Panics if `charset` cannot represent Japanese text.
pub fn encode_japanese_into(tokens: &[JaToken], charset: Charset, out: &mut Vec<u8>) {
    match charset {
        Charset::EucJp => {
            for &t in tokens {
                match t {
                    JaToken::K(k) => out.extend_from_slice(&k.to_eucjp()),
                    JaToken::Ascii(b) => out.push(b & 0x7F),
                }
            }
        }
        Charset::ShiftJis => {
            for &t in tokens {
                match t {
                    JaToken::K(k) => out.extend_from_slice(&k.to_sjis()),
                    JaToken::Ascii(b) => out.push(b & 0x7F),
                }
            }
        }
        Charset::Iso2022Jp => {
            let mut in_208 = false;
            for &t in tokens {
                match t {
                    JaToken::K(k) => {
                        if !in_208 {
                            out.extend_from_slice(&[0x1B, b'$', b'B']);
                            in_208 = true;
                        }
                        out.extend_from_slice(&k.to_jis());
                    }
                    JaToken::Ascii(b) => {
                        if in_208 {
                            out.extend_from_slice(&[0x1B, b'(', b'B']);
                            in_208 = false;
                        }
                        out.push(b & 0x7F);
                    }
                }
            }
            if in_208 {
                // Conforming streams return to ASCII before EOF (RFC 1468).
                out.extend_from_slice(&[0x1B, b'(', b'B']);
            }
        }
        Charset::Utf8 => {
            for &t in tokens {
                match t {
                    JaToken::K(k) => push_utf8(k.to_unicode(), out),
                    JaToken::Ascii(b) => out.push(b & 0x7F),
                }
            }
        }
        other => panic!("charset {other} cannot encode Japanese text"),
    }
}

/// Encode a Thai token stream. The three Thai family members share the
/// same bytes for Thai characters — they differ only in extra
/// (non-generated) code points — so the legacy arms are identical.
///
/// # Panics
/// Panics if `charset` cannot represent Thai text.
pub fn encode_thai(tokens: &[ThToken], charset: Charset) -> Vec<u8> {
    let mut out = Vec::with_capacity(tokens.len());
    encode_thai_into(tokens, charset, &mut out);
    out
}

/// [`encode_thai`], appended to `out`.
///
/// # Panics
/// Panics if `charset` cannot represent Thai text.
pub fn encode_thai_into(tokens: &[ThToken], charset: Charset, out: &mut Vec<u8>) {
    match charset {
        Charset::Tis620 | Charset::Windows874 | Charset::Iso885911 => {
            for &t in tokens {
                match t {
                    ThToken::Thai(b) => {
                        debug_assert!(thai::is_thai_byte(b), "invalid Thai byte {b:02X}");
                        out.push(b);
                    }
                    ThToken::Ascii(b) => out.push(b & 0x7F),
                }
            }
        }
        Charset::Utf8 => {
            for &t in tokens {
                match t {
                    ThToken::Thai(b) => push_utf8(
                        thai::to_unicode(b).expect("generator uses assigned bytes"),
                        out,
                    ),
                    ThToken::Ascii(b) => out.push(b & 0x7F),
                }
            }
        }
        other => panic!("charset {other} cannot encode Thai text"),
    }
}

/// Append the UTF-8 bytes of `c` to `out`.
#[inline]
pub(crate) fn push_utf8(c: char, out: &mut Vec<u8>) {
    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
}

/// A fixed Japanese demo phrase as tokens (hiragana "konnichiwa" +
/// katakana + a kanji-range char + ASCII), for tests and examples.
pub fn japanese_demo_tokens() -> Vec<JaToken> {
    let k = |ku, ten| JaToken::K(Kuten::new(ku, ten).unwrap());
    vec![
        // こんにちは (kuten row 4: ko=19, n=83, ni=45, chi=41, ha=64)
        k(4, 19),
        k(4, 83),
        k(4, 45),
        k(4, 41),
        k(4, 64),
        k(1, 2), // 、
        // カタカナ katakana row 5
        k(5, 21),
        k(5, 37),
        k(5, 21),
        k(5, 48),
        // level-1 kanji region characters
        k(25, 66),
        k(33, 12),
        JaToken::Ascii(b' '),
        JaToken::Ascii(b'W'),
        JaToken::Ascii(b'e'),
        JaToken::Ascii(b'b'),
        k(1, 3), // 。
    ]
}

/// A fixed Thai demo phrase as tokens ("sawasdee"-like syllables with
/// canonical consonant/vowel/tone structure).
pub fn thai_demo_tokens() -> Vec<ThToken> {
    let t = |b| ThToken::Thai(b);
    vec![
        // ส ว ั ส ด ี (sawasdee)
        t(0xCA),
        t(0xC7),
        t(0xD1),
        t(0xCA),
        t(0xB4),
        t(0xD5),
        ThToken::Ascii(b' '),
        // ค ร ั บ (khrap)
        t(0xA4),
        t(0xC3),
        t(0xD1),
        t(0xBA),
        ThToken::Ascii(b' '),
        // เ มื อ ง ไ ท ย (mueang thai)
        t(0xE0),
        t(0xC1),
        t(0xD7),
        t(0xCD),
        t(0xA7),
        t(0xE4),
        t(0xB7),
        t(0xC2),
    ]
}

/// The Thai demo phrase encoded as TIS-620 bytes (test helper).
pub fn encode_thai_demo() -> Vec<u8> {
    encode_thai(&thai_demo_tokens(), Charset::Tis620)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sm::{
        EucJpVerifier, Iso2022JpVerifier, ShiftJisVerifier, SmState, Utf8Verifier, Verifier,
    };

    fn valid<V: Verifier>(mut v: V, bytes: &[u8]) -> bool {
        for &b in bytes {
            if v.feed(b) == SmState::Error {
                return false;
            }
        }
        v.at_boundary()
    }

    #[test]
    fn japanese_encodings_pass_their_own_verifiers() {
        let toks = japanese_demo_tokens();
        assert!(valid(
            EucJpVerifier::new(),
            &encode_japanese(&toks, Charset::EucJp)
        ));
        assert!(valid(
            ShiftJisVerifier::new(),
            &encode_japanese(&toks, Charset::ShiftJis)
        ));
        assert!(valid(
            Iso2022JpVerifier::new(),
            &encode_japanese(&toks, Charset::Iso2022Jp)
        ));
        assert!(valid(
            Utf8Verifier::new(),
            &encode_japanese(&toks, Charset::Utf8)
        ));
    }

    #[test]
    fn thai_encoding_is_single_byte() {
        let toks = thai_demo_tokens();
        let bytes = encode_thai(&toks, Charset::Tis620);
        assert_eq!(bytes.len(), toks.len());
        for (tok, b) in toks.iter().zip(&bytes) {
            match tok {
                ThToken::Thai(t) => assert_eq!(t, b),
                ThToken::Ascii(a) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn thai_utf8_is_valid_unicode_thai() {
        let bytes = encode_thai(&thai_demo_tokens(), Charset::Utf8);
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.chars().any(|c| ('\u{0E01}'..='\u{0E5B}').contains(&c)));
    }

    #[test]
    fn iso2022jp_always_returns_to_ascii() {
        let toks = vec![JaToken::K(Kuten::new(4, 2).unwrap())];
        let bytes = encode_japanese(&toks, Charset::Iso2022Jp);
        assert!(bytes.ends_with(&[0x1B, b'(', b'B']));
    }

    #[test]
    #[should_panic(expected = "cannot encode Japanese")]
    fn japanese_in_thai_charset_panics() {
        encode_japanese(&japanese_demo_tokens(), Charset::Tis620);
    }

    #[test]
    #[should_panic(expected = "cannot encode Thai")]
    fn thai_in_japanese_charset_panics() {
        encode_thai(&thai_demo_tokens(), Charset::EucJp);
    }
}
