//! Encoders: token streams → bytes in a chosen charset.
//!
//! The web-space generator synthesizes page text as *token streams* —
//! language-level units that are independent of any byte encoding — and
//! then encodes them into the page's ground-truth charset. That gives the
//! detector honest work to do: the same Japanese document can be served as
//! EUC-JP, Shift_JIS, ISO-2022-JP or UTF-8 bytes, and the detector must
//! recover which.
//!
//! Each token-stream encoder ([`encode_japanese`], [`encode_thai`] and
//! [`crate::dbcs`]'s Korean and Chinese ones) wraps a streaming encoder
//! ([`JapaneseEncoder`], [`ThaiEncoder`], [`crate::dbcs::DbcsEncoder`])
//! that appends one token at a time to a caller's buffer; page synthesis
//! uses those directly.

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
    let mut enc = JapaneseEncoder::new(charset);
    let mut out = Vec::with_capacity(tokens.len() * 2);
    for &t in tokens {
        enc.push_token(t, &mut out);
    }
    enc.finish(&mut out);
    out
}

/// [`encode_japanese`] one token at a time: each
/// [`push_token`](Self::push_token) appends a token's bytes to a caller's
/// buffer, so text can be encoded straight into a larger document.
/// [`finish`](Self::finish) ends the text; ISO-2022-JP needs it to return
/// to ASCII.
#[derive(Debug)]
pub struct JapaneseEncoder {
    scheme: JaScheme,
}

#[derive(Debug)]
enum JaScheme {
    EucJp,
    ShiftJis,
    /// `in_208`: the JIS X 0208 set is designated, so ASCII needs an
    /// escape back first.
    Iso2022Jp {
        in_208: bool,
    },
    Utf8,
}

impl JapaneseEncoder {
    /// An encoder into `charset`.
    ///
    /// # Panics
    /// Panics if `charset` cannot represent Japanese text.
    pub fn new(charset: Charset) -> Self {
        let scheme = match charset {
            Charset::EucJp => JaScheme::EucJp,
            Charset::ShiftJis => JaScheme::ShiftJis,
            Charset::Iso2022Jp => JaScheme::Iso2022Jp { in_208: false },
            Charset::Utf8 => JaScheme::Utf8,
            other => panic!("charset {other} cannot encode Japanese text"),
        };
        JapaneseEncoder { scheme }
    }

    /// Append the bytes of one token to `out`.
    #[inline]
    pub fn push_token(&mut self, token: JaToken, out: &mut Vec<u8>) {
        match token {
            JaToken::K(k) => match &mut self.scheme {
                JaScheme::EucJp => out.extend_from_slice(&k.to_eucjp()),
                JaScheme::ShiftJis => out.extend_from_slice(&k.to_sjis()),
                JaScheme::Iso2022Jp { in_208 } => {
                    if !*in_208 {
                        out.extend_from_slice(&[0x1B, b'$', b'B']);
                        *in_208 = true;
                    }
                    out.extend_from_slice(&k.to_jis());
                }
                JaScheme::Utf8 => push_utf8(k.to_unicode(), out),
            },
            JaToken::Ascii(b) => {
                if let JaScheme::Iso2022Jp { in_208 } = &mut self.scheme {
                    if *in_208 {
                        out.extend_from_slice(&[0x1B, b'(', b'B']);
                        *in_208 = false;
                    }
                }
                out.push(b & 0x7F);
            }
        }
    }

    /// End the text: conforming ISO-2022-JP returns to ASCII before the
    /// text ends (RFC 1468). The other charsets need nothing.
    pub fn finish(self, out: &mut Vec<u8>) {
        if matches!(self.scheme, JaScheme::Iso2022Jp { in_208: true }) {
            out.extend_from_slice(&[0x1B, b'(', b'B']);
        }
    }
}

/// Encode a Thai token stream. The three Thai family members share the
/// same bytes for Thai characters — they differ only in extra
/// (non-generated) code points — so the legacy arms are identical.
///
/// # Panics
/// Panics if `charset` cannot represent Thai text.
pub fn encode_thai(tokens: &[ThToken], charset: Charset) -> Vec<u8> {
    let enc = ThaiEncoder::new(charset);
    let mut out = Vec::with_capacity(tokens.len());
    for &t in tokens {
        enc.push_token(t, &mut out);
    }
    out
}

/// [`encode_thai`] one token at a time, appending to a caller's buffer.
/// Thai encodings keep no state between characters, so there is nothing
/// to finish.
#[derive(Debug, Clone, Copy)]
pub struct ThaiEncoder {
    utf8: bool,
}

impl ThaiEncoder {
    /// An encoder into `charset`.
    ///
    /// # Panics
    /// Panics if `charset` cannot represent Thai text.
    pub fn new(charset: Charset) -> Self {
        let utf8 = match charset {
            Charset::Tis620 | Charset::Windows874 | Charset::Iso885911 => false,
            Charset::Utf8 => true,
            other => panic!("charset {other} cannot encode Thai text"),
        };
        ThaiEncoder { utf8 }
    }

    /// Append the bytes of one token to `out`.
    #[inline]
    pub fn push_token(&self, token: ThToken, out: &mut Vec<u8>) {
        match token {
            ThToken::Thai(b) if self.utf8 => {
                push_utf8(
                    thai::to_unicode(b).expect("generator uses assigned bytes"),
                    out,
                );
            }
            ThToken::Thai(b) => {
                debug_assert!(thai::is_thai_byte(b), "invalid Thai byte {b:02X}");
                out.push(b);
            }
            ThToken::Ascii(b) => out.push(b & 0x7F),
        }
    }
}

/// Encode plain ASCII text (the "irrelevant page" filler for English-like
/// pages; also valid Latin-1 and UTF-8 by construction).
pub fn encode_ascii(text: &str) -> Vec<u8> {
    text.bytes().map(|b| b & 0x7F).collect()
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
    fn ascii_passthrough() {
        assert_eq!(encode_ascii("abc"), b"abc");
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
