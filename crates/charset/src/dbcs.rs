//! EUC-packed double-byte models for Korean (KS X 1001 / EUC-KR) and
//! Simplified Chinese (GB 2312-80 / GB2312) — the §6 "wider range of
//! crawling strategies [and languages]" extension.
//!
//! Both national standards arrange characters on the same 94×94 grid the
//! JIS standard uses, and both are carried on the wire in the identical
//! EUC packing `(0xA0+row, 0xA0+cell)`. The [`crate::kuten::Kuten`] type
//! therefore models their code points directly; what differs per
//! language is *which rows are hot* — exactly the statistic the
//! distribution probers key on:
//!
//! * **KS X 1001**: modern Korean text is almost entirely precomposed
//!   hangul, rows 16..=40; hanja (rows 42..=93) are rare today.
//! * **GB 2312**: level-1 hanzi (frequency-ordered!) rows 16..=55 carry
//!   most text, level-2 (rows 56..=87) a steady tail, symbols rows 1..=9.
//!
//! Unicode model mappings (documented substitutions, like the kanji
//! mapping in [`crate::kuten`]): hangul rows map injectively into the
//! Hangul Syllables block `U+AC00 + (row−16)·94 + (cell−1)`; GB hanzi
//! rows map into CJK Unified Ideographs at an offset disjoint from the
//! Japanese model image (`U+7000 + …`), so decoded text from the two
//! languages never collides. Detection only consults Unicode blocks, so
//! the model mappings preserve its behaviour.

use crate::encode::push_utf8;
use crate::kuten::Kuten;
use crate::types::Charset;

/// Significant KS X 1001 / GB 2312 row numbers.
pub mod rows {
    /// First hangul row in KS X 1001.
    pub const HANGUL_FIRST: u8 = 16;
    /// Last hangul row in KS X 1001.
    pub const HANGUL_LAST: u8 = 40;
    /// First level-1 hanzi row in GB 2312.
    pub const HANZI_L1_FIRST: u8 = 16;
    /// Last level-1 hanzi row in GB 2312.
    pub const HANZI_L1_LAST: u8 = 55;
    /// Last level-2 hanzi row in GB 2312.
    pub const HANZI_L2_LAST: u8 = 87;
}

/// One unit of Korean or Chinese text: a 94×94 grid cell or ASCII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbToken {
    /// A double-byte character, addressed row/cell like [`Kuten`].
    Cell(Kuten),
    /// A 7-bit ASCII byte.
    Ascii(u8),
}

/// EUC bytes of a grid cell — shared by EUC-KR and GB2312 (and EUC-JP's
/// main plane).
#[inline]
pub fn to_euc(k: Kuten) -> [u8; 2] {
    k.to_eucjp()
}

/// Decode an EUC byte pair back to a grid cell.
#[inline]
pub fn from_euc(lead: u8, trail: u8) -> Option<Kuten> {
    Kuten::from_eucjp(lead, trail)
}

/// Model Unicode mapping for a KS X 1001 cell.
pub fn korean_to_unicode(k: Kuten) -> char {
    let cp: u32 = match k.ku {
        r if (rows::HANGUL_FIRST..=rows::HANGUL_LAST).contains(&r) => {
            0xAC00 + (r as u32 - rows::HANGUL_FIRST as u32) * 94 + (k.ten as u32 - 1)
        }
        1 => 0x3000 + (k.ten as u32 - 1).min(0x3F), // ideographic punctuation
        // Hanja and symbol rows: map into a CJK area disjoint from both
        // the Japanese and Chinese model images.
        r => 0x8A00 + ((r as u32) * 94 + k.ten as u32) % 0x800,
    };
    char::from_u32(cp).expect("model mapping stays in assigned planes")
}

/// Inverse of [`korean_to_unicode`] on the hangul block.
pub fn korean_from_unicode(c: char) -> Option<Kuten> {
    let cp = c as u32;
    if (0xAC00..0xAC00 + 25 * 94).contains(&cp) {
        let off = cp - 0xAC00;
        Kuten::new(rows::HANGUL_FIRST + (off / 94) as u8, (off % 94 + 1) as u8)
    } else {
        None
    }
}

/// Model Unicode mapping for a GB 2312 cell.
pub fn chinese_to_unicode(k: Kuten) -> char {
    let cp: u32 = match k.ku {
        r if (rows::HANZI_L1_FIRST..=rows::HANZI_L2_LAST).contains(&r) => {
            0x7000 + (r as u32 - rows::HANZI_L1_FIRST as u32) * 94 + (k.ten as u32 - 1)
        }
        1 => 0x3000 + (k.ten as u32 - 1).min(0x3F),
        r => 0x2600 + ((r as u32) * 94 + k.ten as u32) % 0x300,
    };
    char::from_u32(cp).expect("model mapping stays in assigned planes")
}

/// Inverse of [`chinese_to_unicode`] on the hanzi block.
pub fn chinese_from_unicode(c: char) -> Option<Kuten> {
    let cp = c as u32;
    if (0x7000..0x7000 + 72 * 94).contains(&cp) {
        let off = cp - 0x7000;
        Kuten::new(
            rows::HANZI_L1_FIRST + (off / 94) as u8,
            (off % 94 + 1) as u8,
        )
    } else {
        None
    }
}

/// Encode a Korean token stream as EUC-KR or UTF-8.
///
/// # Panics
/// Panics on a charset that cannot carry Korean text.
pub fn encode_korean(tokens: &[DbToken], charset: Charset) -> Vec<u8> {
    let mut out = Vec::with_capacity(tokens.len() * 2);
    encode_korean_into(tokens, charset, &mut out);
    out
}

/// [`encode_korean`], appended to `out`.
///
/// # Panics
/// Panics on a charset that cannot carry Korean text.
pub fn encode_korean_into(tokens: &[DbToken], charset: Charset, out: &mut Vec<u8>) {
    encode_dbcs_into(tokens, charset, Charset::EucKr, korean_to_unicode, out);
}

/// Encode a Chinese token stream as GB2312 or UTF-8.
///
/// # Panics
/// Panics on a charset that cannot carry Chinese text.
pub fn encode_chinese(tokens: &[DbToken], charset: Charset) -> Vec<u8> {
    let mut out = Vec::with_capacity(tokens.len() * 2);
    encode_chinese_into(tokens, charset, &mut out);
    out
}

/// [`encode_chinese`], appended to `out`.
///
/// # Panics
/// Panics on a charset that cannot carry Chinese text.
pub fn encode_chinese_into(tokens: &[DbToken], charset: Charset, out: &mut Vec<u8>) {
    encode_dbcs_into(tokens, charset, Charset::Gb2312, chinese_to_unicode, out);
}

fn encode_dbcs_into(
    tokens: &[DbToken],
    charset: Charset,
    legacy: Charset,
    to_unicode: fn(Kuten) -> char,
    out: &mut Vec<u8>,
) {
    if charset == legacy {
        for &t in tokens {
            match t {
                DbToken::Cell(k) => out.extend_from_slice(&to_euc(k)),
                DbToken::Ascii(b) => out.push(b & 0x7F),
            }
        }
    } else if charset == Charset::Utf8 {
        for &t in tokens {
            match t {
                DbToken::Cell(k) => push_utf8(to_unicode(k), out),
                DbToken::Ascii(b) => out.push(b & 0x7F),
            }
        }
    } else {
        panic!("charset {charset} cannot encode this DBCS text")
    }
}

/// Fixed Korean demo phrase tokens (hangul rows, a few ASCII).
pub fn korean_demo_tokens() -> Vec<DbToken> {
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
pub fn chinese_demo_tokens() -> Vec<DbToken> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euc_round_trip_is_kuten_round_trip() {
        for ku in [1u8, 16, 40, 55, 87, 94] {
            for ten in [1u8, 47, 94] {
                let k = Kuten::new(ku, ten).unwrap();
                let [l, t] = to_euc(k);
                assert_eq!(from_euc(l, t), Some(k));
            }
        }
    }

    #[test]
    fn hangul_unicode_round_trip() {
        for ku in rows::HANGUL_FIRST..=rows::HANGUL_LAST {
            for ten in [1u8, 50, 94] {
                let k = Kuten::new(ku, ten).unwrap();
                let c = korean_to_unicode(k);
                assert!(('\u{AC00}'..='\u{D7A3}').contains(&c), "{c:?}");
                assert_eq!(korean_from_unicode(c), Some(k));
            }
        }
    }

    #[test]
    fn hanzi_unicode_round_trip_and_disjoint_from_japanese() {
        for ku in rows::HANZI_L1_FIRST..=rows::HANZI_L2_LAST {
            let k = Kuten::new(ku, 40).unwrap();
            let c = chinese_to_unicode(k);
            assert_eq!(chinese_from_unicode(c), Some(k));
            // Disjoint from the Japanese kanji model image (U+4E00..U+6785).
            assert!((c as u32) >= 0x7000, "{:04X}", c as u32);
        }
    }

    #[test]
    fn demo_encodings_valid() {
        let kr = encode_korean(&korean_demo_tokens(), Charset::EucKr);
        assert!(kr.iter().any(|&b| b >= 0xA1));
        let kr8 = encode_korean(&korean_demo_tokens(), Charset::Utf8);
        assert!(String::from_utf8(kr8).is_ok());
        let cn = encode_chinese(&chinese_demo_tokens(), Charset::Gb2312);
        assert!(cn.iter().any(|&b| b >= 0xA1));
        let cn8 = encode_chinese(&chinese_demo_tokens(), Charset::Utf8);
        assert!(String::from_utf8(cn8).is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot encode")]
    fn wrong_charset_panics() {
        encode_korean(&korean_demo_tokens(), Charset::Tis620);
    }
}
