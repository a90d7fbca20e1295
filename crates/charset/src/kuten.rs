//! A JIS X 0208 *kuten* model of Japanese text.
//!
//! JIS X 0208 arranges characters on a 94×94 grid addressed by *ku* (row,
//! 1–94) and *ten* (cell, 1–94). All three Japanese encodings of the
//! paper's Table 1 are **algorithmic transforms of the same kuten code**:
//!
//! * EUC-JP: `(0xA0+ku, 0xA0+ten)`
//! * ISO-2022-JP: `(0x20+ku, 0x20+ten)` between `ESC $ B` … `ESC ( B`
//! * Shift_JIS: the folded two-rows-per-lead-byte packing (see
//!   [`Kuten::to_sjis`])
//!
//! Modeling text as kuten sequences therefore lets us encode the *same
//! document* into every legacy Japanese charset without any lookup tables,
//! and gives the distribution analyser a principled feature space (row
//! frequencies) — exactly the statistic Mozilla's Japanese
//! character-distribution prober uses.
//!
//! For the UTF-8 path we use the mapping described below
//! ([`Kuten::to_unicode`]): the kana rows map *exactly* onto their real
//! Unicode blocks; the kanji rows map injectively into the CJK Unified
//! Ideographs block by a deterministic model mapping (documented
//! substitution — real JIS↔Unicode kanji tables are ~7000 entries and
//! irrelevant to detection, which only consults Unicode blocks).

/// Significant JIS X 0208 row numbers.
pub mod rows {
    /// Row 1: ideographic punctuation (、。・「」 etc.).
    pub const PUNCT: u8 = 1;
    /// Row 3: full-width digits and Latin letters.
    pub const FULLWIDTH_LATIN: u8 = 3;
    /// Row 4: hiragana (ten 1..=83).
    pub const HIRAGANA: u8 = 4;
    /// Row 5: katakana (ten 1..=86).
    pub const KATAKANA: u8 = 5;
    /// First JIS Level-1 kanji row.
    pub const KANJI_FIRST: u8 = 16;
    /// Last JIS Level-1 kanji row.
    pub const KANJI_LEVEL1_LAST: u8 = 47;
    /// Last JIS Level-2 kanji row.
    pub const KANJI_LAST: u8 = 84;
}

/// A JIS X 0208 code point: row (*ku*) and cell (*ten*), both 1..=94.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kuten {
    /// Row number, 1..=94.
    pub ku: u8,
    /// Cell number, 1..=94.
    pub ten: u8,
}

impl Kuten {
    /// Construct, checking the 1..=94 bounds.
    pub fn new(ku: u8, ten: u8) -> Option<Kuten> {
        if (1..=94).contains(&ku) && (1..=94).contains(&ten) {
            Some(Kuten { ku, ten })
        } else {
            None
        }
    }

    /// EUC-JP bytes for this code point.
    #[inline]
    pub fn to_eucjp(self) -> [u8; 2] {
        [0xA0 + self.ku, 0xA0 + self.ten]
    }

    /// Decode EUC-JP bytes back to a kuten code.
    #[inline]
    pub fn from_eucjp(lead: u8, trail: u8) -> Option<Kuten> {
        if (0xA1..=0xFE).contains(&lead) && (0xA1..=0xFE).contains(&trail) {
            Kuten::new(lead - 0xA0, trail - 0xA0)
        } else {
            None
        }
    }

    /// The 7-bit JIS (ISO-2022-JP) byte pair for this code point.
    #[inline]
    pub fn to_jis(self) -> [u8; 2] {
        [0x20 + self.ku, 0x20 + self.ten]
    }

    /// Decode a 7-bit JIS byte pair.
    #[inline]
    pub fn from_jis(b1: u8, b2: u8) -> Option<Kuten> {
        if (0x21..=0x7E).contains(&b1) && (0x21..=0x7E).contains(&b2) {
            Kuten::new(b1 - 0x20, b2 - 0x20)
        } else {
            None
        }
    }

    /// Shift_JIS bytes for this code point (the standard JIS→SJIS fold:
    /// two JIS rows share one Shift_JIS lead byte).
    pub fn to_sjis(self) -> [u8; 2] {
        let j1 = self.ku + 0x20;
        let j2 = self.ten + 0x20;
        let mut s1 = (j1 - 0x21) / 2 + 0x81;
        if s1 > 0x9F {
            s1 += 0x40; // skip the 0xA0..0xDF half-width-kana band
        }
        let s2 = if j1 % 2 == 1 {
            // Odd JIS row → first half of the lead byte's span.
            if j2 < 0x60 {
                j2 + 0x1F
            } else {
                j2 + 0x20
            }
        } else {
            j2 + 0x7E
        };
        [s1, s2]
    }

    /// Decode a Shift_JIS double-byte sequence back to kuten.
    pub fn from_sjis(lead: u8, trail: u8) -> Option<Kuten> {
        let lead_ok = (0x81..=0x9F).contains(&lead) || (0xE0..=0xEF).contains(&lead);
        let trail_ok = (0x40..=0x7E).contains(&trail) || (0x80..=0xFC).contains(&trail);
        if !lead_ok || !trail_ok {
            return None;
        }
        let adjusted = if lead >= 0xE0 { lead - 0x40 } else { lead };
        let row_pair = (adjusted - 0x81) * 2; // 0-based pair of JIS rows
        let (j1, j2) = if trail < 0x9F {
            // First (odd) row of the pair.
            let j2 = if trail > 0x7E {
                trail - 0x20
            } else {
                trail - 0x1F
            };
            (row_pair + 0x21, j2)
        } else {
            (row_pair + 0x22, trail - 0x7E)
        };
        Kuten::new(j1 - 0x20, j2 - 0x20)
    }

    /// Map to a Unicode scalar under the crate's documented model mapping:
    ///
    /// * row 1 (punctuation): ten *t* → `U+3000 + (t-1)` — the first cells
    ///   match real JIS (1-1 ideographic space, 1-2 、, 1-3 。);
    /// * row 3 (full-width Latin): ten *t* → `U+FF00 + t`;
    /// * row 4 (hiragana): ten *t* → `U+3040 + t` — exact for all 83 cells;
    /// * row 5 (katakana): ten *t* → `U+30A0 + t` — exact for all 86 cells;
    /// * rows 16..=84 (kanji): `U+4E00 + (ku-16)*94 + (ten-1)` — an
    ///   injective model mapping into CJK Unified Ideographs;
    /// * other rows (symbols, Greek, Cyrillic, box drawing): mapped into
    ///   the Geometric Shapes / misc area `U+25A0 + ...` as opaque symbols.
    pub fn to_unicode(self) -> char {
        let cp: u32 = match self.ku {
            rows::PUNCT => 0x3000 + (self.ten as u32 - 1),
            rows::FULLWIDTH_LATIN => 0xFF00 + self.ten as u32,
            rows::HIRAGANA => 0x3040 + self.ten as u32,
            rows::KATAKANA => 0x30A0 + self.ten as u32,
            k if (rows::KANJI_FIRST..=rows::KANJI_LAST).contains(&k) => {
                0x4E00 + (k as u32 - rows::KANJI_FIRST as u32) * 94 + (self.ten as u32 - 1)
            }
            k => 0x2500 + ((k as u32) * 94 + self.ten as u32) % 0x300,
        };
        char::from_u32(cp).expect("model mapping stays inside assigned planes")
    }

    /// Inverse of [`Kuten::to_unicode`] for the exactly-mapped rows
    /// (punctuation, full-width Latin, kana, kanji model block). Returns
    /// `None` for code points outside the model image.
    // lint:allow(test-only-pub): crates/charset/tests/proptests.rs checks the kuten bijection with it
    pub fn from_unicode(c: char) -> Option<Kuten> {
        let cp = c as u32;
        match cp {
            // Hiragana/katakana first: the model's row-1 image overlaps the
            // hiragana block for large ten, and kana must win there.
            0x3041..=0x3093 => Kuten::new(rows::HIRAGANA, (cp - 0x3040) as u8),
            0x3000..=0x3040 => Kuten::new(rows::PUNCT, (cp - 0x3000 + 1) as u8),
            0x30A1..=0x30F6 => Kuten::new(rows::KATAKANA, (cp - 0x30A0) as u8),
            0xFF01..=0xFF5E => Kuten::new(rows::FULLWIDTH_LATIN, (cp - 0xFF00) as u8),
            0x4E00..=0x6785 => {
                let off = cp - 0x4E00;
                Kuten::new(rows::KANJI_FIRST + (off / 94) as u8, (off % 94 + 1) as u8)
            }
            _ => None,
        }
    }

    /// Is this a hiragana cell?
    pub fn is_hiragana(self) -> bool {
        self.ku == rows::HIRAGANA && self.ten <= 83
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Kuten {
        /// Is this a katakana cell?
        fn is_katakana(self) -> bool {
            self.ku == rows::KATAKANA && self.ten <= 86
        }

        /// Is this a kanji cell (level 1 or 2)?
        fn is_kanji(self) -> bool {
            (rows::KANJI_FIRST..=rows::KANJI_LAST).contains(&self.ku)
        }
    }

    fn all_kuten() -> impl Iterator<Item = Kuten> {
        (1..=94u8).flat_map(|ku| (1..=94u8).map(move |ten| Kuten { ku, ten }))
    }

    #[test]
    fn bounds_checked() {
        assert!(Kuten::new(0, 5).is_none());
        assert!(Kuten::new(95, 5).is_none());
        assert!(Kuten::new(5, 0).is_none());
        assert!(Kuten::new(5, 95).is_none());
        assert!(Kuten::new(1, 1).is_some());
        assert!(Kuten::new(94, 94).is_some());
    }

    #[test]
    fn eucjp_round_trip_exhaustive() {
        for k in all_kuten() {
            let [l, t] = k.to_eucjp();
            assert_eq!(Kuten::from_eucjp(l, t), Some(k));
        }
    }

    #[test]
    fn jis_round_trip_exhaustive() {
        for k in all_kuten() {
            let [b1, b2] = k.to_jis();
            assert_eq!(Kuten::from_jis(b1, b2), Some(k));
        }
    }

    #[test]
    fn sjis_round_trip_exhaustive() {
        for k in all_kuten() {
            let [l, t] = k.to_sjis();
            assert_eq!(
                Kuten::from_sjis(l, t),
                Some(k),
                "kuten {k:?} → {l:02X} {t:02X}"
            );
        }
    }

    #[test]
    fn sjis_bytes_always_in_valid_ranges() {
        for k in all_kuten() {
            let [l, t] = k.to_sjis();
            assert!(
                (0x81..=0x9F).contains(&l) || (0xE0..=0xEF).contains(&l),
                "lead {l:02X} for {k:?}"
            );
            assert!(
                (0x40..=0x7E).contains(&t) || (0x80..=0xFC).contains(&t),
                "trail {t:02X} for {k:?}"
            );
            assert_ne!(t, 0x7F);
        }
    }

    /// Spot-check the SJIS transform against known real pairs.
    #[test]
    fn sjis_known_values() {
        // Hiragana あ is kuten 4-2: SJIS 0x82 0xA0, EUC 0xA4 0xA2.
        let a = Kuten::new(4, 2).unwrap();
        assert_eq!(a.to_sjis(), [0x82, 0xA0]);
        assert_eq!(a.to_eucjp(), [0xA4, 0xA2]);
        // Ideographic space is kuten 1-1: SJIS 0x81 0x40.
        let sp = Kuten::new(1, 1).unwrap();
        assert_eq!(sp.to_sjis(), [0x81, 0x40]);
        // Katakana ア is kuten 5-2: SJIS 0x83 0x41.
        let ka = Kuten::new(5, 2).unwrap();
        assert_eq!(ka.to_sjis(), [0x83, 0x41]);
    }

    #[test]
    fn kana_unicode_mapping_is_real() {
        // あ = kuten 4-2 = U+3042; ん = 4-83 = U+3093.
        assert_eq!(Kuten::new(4, 2).unwrap().to_unicode(), 'あ');
        assert_eq!(Kuten::new(4, 83).unwrap().to_unicode(), 'ん');
        // ア = kuten 5-2 = U+30A2.
        assert_eq!(Kuten::new(5, 2).unwrap().to_unicode(), 'ア');
        // Ideographic space / comma / full stop.
        assert_eq!(Kuten::new(1, 1).unwrap().to_unicode(), '\u{3000}');
        assert_eq!(Kuten::new(1, 2).unwrap().to_unicode(), '、');
        assert_eq!(Kuten::new(1, 3).unwrap().to_unicode(), '。');
    }

    #[test]
    fn unicode_round_trip_mapped_rows() {
        for ku in [1u8, 3, 4, 5, 16, 30, 47, 60, 84] {
            for ten in 1..=94u8 {
                let k = Kuten::new(ku, ten).unwrap();
                // Kana rows are exact only within their assigned cells.
                if (ku == 4 && ten > 83) || (ku == 5 && ten > 86) {
                    continue;
                }
                let exact = matches!(ku, 1 | 3 | 4 | 5) || k.is_kanji();
                if exact {
                    let c = k.to_unicode();
                    // Row 1 mapping covers ten 1..=94 → U+3000..U+305D which
                    // overlaps hiragana start; inverse prefers hiragana for
                    // U+3041+. Only assert where the inverse is defined and
                    // unambiguous.
                    if ku == 1 && (c as u32) >= 0x3041 {
                        continue;
                    }
                    if ku == 3 && !(0xFF01..=0xFF5E).contains(&(c as u32)) {
                        continue;
                    }
                    assert_eq!(Kuten::from_unicode(c), Some(k), "ku {ku} ten {ten}");
                }
            }
        }
    }

    #[test]
    fn classification_predicates() {
        assert!(Kuten::new(4, 10).unwrap().is_hiragana());
        assert!(!Kuten::new(4, 90).unwrap().is_hiragana());
        assert!(Kuten::new(5, 10).unwrap().is_katakana());
        assert!(Kuten::new(20, 50).unwrap().is_kanji());
        assert!(!Kuten::new(4, 10).unwrap().is_kanji());
    }
}
