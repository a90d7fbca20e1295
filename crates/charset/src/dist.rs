//! Character-distribution analysis — Li & Momoi's second detection method.
//!
//! Byte-sequence validity alone cannot separate EUC-JP from Shift_JIS:
//! large families of byte strings are legal in both. What separates them
//! is *where the decoded characters land*. Real Japanese running text is
//! roughly half hiragana, with the rest concentrated in katakana,
//! ideographic punctuation and the JIS level-1 kanji rows; a wrong
//! decoding scatters characters uniformly over the 94×94 grid (or into
//! the rarely-used half-width-kana singles). The analyser accumulates a
//! *typicality* weight per decoded character and reports the mean.

use crate::kuten::{rows, Kuten};
use crate::prober::by_byte;

/// The distributions' row-class matches, flattened into per-row weight
/// tables built once at compile time: recording a decoded character is
/// then one indexed load instead of a cascade of range compares, which
/// matters because the probers call these on every multibyte character
/// of every document. Index is the row (ku) 1..=94; the tables span every
/// byte so that any row indexes them, and rows 0 and 95..=255, which no
/// decoder produces, weigh as the unassigned rows do.
const fn ja_row_weights() -> [f64; 256] {
    let mut t = [0.05f64; 256];
    let mut ku = 1usize;
    while ku < 95 {
        t[ku] = match ku as u8 {
            rows::HIRAGANA => 1.0,
            rows::KATAKANA => 0.9,
            rows::PUNCT => 0.85,
            rows::FULLWIDTH_LATIN => 0.7,
            2 => 0.4, // symbols
            ku if ku >= rows::KANJI_FIRST && ku <= rows::KANJI_LEVEL1_LAST => 0.85,
            ku if ku >= 48 && ku <= rows::KANJI_LAST => 0.35,
            _ => 0.05, // Greek/Cyrillic/box-drawing rows: wrong decoding smell
        };
        ku += 1;
    }
    t
}

static JA_ROW_WEIGHTS: [f64; 256] = ja_row_weights();

/// Per row, the last cell [`JapaneseDistribution`] weighs by its row:
/// the last assigned cell of the kana rows (ん 4-83, ヶ 5-86), and every
/// cell of the other rows.
static JA_LAST_CELL: [u8; 256] = {
    let mut t = [u8::MAX; 256];
    t[rows::HIRAGANA as usize] = 83;
    t[rows::KATAKANA as usize] = 86;
    t
};

/// Accumulates decoded characters of a candidate Japanese decoding and
/// scores how much they look like Japanese text.
#[derive(Debug, Default, Clone)]
pub struct JapaneseDistribution {
    chars: u32,
    weight_sum: f64,
    hiragana: u32,
    halfwidth_kana: u32,
}

impl JapaneseDistribution {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one decoded JIS X 0208 character.
    #[inline]
    pub fn add_kuten(&mut self, k: Kuten) {
        self.chars += 1;
        self.weight_sum += Self::typicality(k);
        self.hiragana += u32::from(k.is_hiragana());
    }

    /// Record one half-width katakana character (EUC-JP SS2 plane or
    /// Shift_JIS single byte 0xA1..=0xDF). Common in 1990s pages but a
    /// minority of characters; an all-half-width decoding is suspicious.
    #[inline]
    pub fn add_halfwidth_kana(&mut self) {
        self.chars += 1;
        self.halfwidth_kana += 1;
        self.weight_sum += 0.35;
    }

    /// Typicality of one JIS X 0208 cell in running Japanese text, in
    /// [0, 1]. The shape mirrors [`crate::kuten::row_weight`] but is
    /// normalised per character instead of per row. Two table loads: the
    /// row's weight, and its last assigned cell, past which (the
    /// unassigned tails of the kana rows) a cell weighs 0.05. Running
    /// text never reaches those tails, so the one branch predicts well
    /// however hiragana and kanji alternate.
    #[inline]
    fn typicality(k: Kuten) -> f64 {
        if k.ten > by_byte(&JA_LAST_CELL, k.ku) {
            return 0.05;
        }
        by_byte(&JA_ROW_WEIGHTS, k.ku)
    }

    /// Number of multibyte characters recorded.
    pub fn chars(&self) -> u32 {
        self.chars
    }

    /// Mean typicality in [0, 1]; 0 when nothing was recorded.
    pub fn score(&self) -> f64 {
        if self.chars == 0 {
            return 0.0;
        }
        let mut mean = self.weight_sum / self.chars as f64;
        // An all-half-width-kana decoding gets a further haircut: it is
        // the classic false-positive when EUC-JP bytes are read as
        // Shift_JIS singles.
        let hw_ratio = self.halfwidth_kana as f64 / self.chars as f64;
        if hw_ratio > 0.8 {
            mean *= 0.5;
        }
        // Running Japanese text without kana is essentially impossible;
        // a kana-free decoding with many characters is far more likely
        // Korean or Chinese bytes misread through the shared EUC packing.
        if self.chars >= 12 && self.hiragana_ratio() < 0.05 && hw_ratio < 0.5 {
            mean *= 0.5;
        }
        mean
    }

    /// Fraction of recorded characters that are hiragana.
    pub fn hiragana_ratio(&self) -> f64 {
        if self.chars == 0 {
            0.0
        } else {
            self.hiragana as f64 / self.chars as f64
        }
    }
}

const fn kr_row_weights() -> [f64; 256] {
    use crate::dbcs::rows as kr;
    let mut t = [0.05f64; 256];
    let mut ku = 1usize;
    while ku < 95 {
        t[ku] = match ku as u8 {
            ku if ku >= kr::HANGUL_FIRST && ku <= kr::HANGUL_LAST => 1.0,
            1..=12 => 0.5,   // symbols/punctuation rows
            42..=93 => 0.15, // hanja: rare in modern text
            _ => 0.05,
        };
        ku += 1;
    }
    t
}

static KR_ROW_WEIGHTS: [f64; 256] = kr_row_weights();

/// Accumulates decoded KS X 1001 cells and scores how much they look
/// like modern Korean text (hangul-dominated; see [`crate::dbcs`]).
#[derive(Debug, Default, Clone)]
pub struct KoreanDistribution {
    chars: u32,
    weight_sum: f64,
}

impl KoreanDistribution {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one decoded cell.
    #[inline]
    pub fn add_cell(&mut self, k: Kuten) {
        self.chars += 1;
        self.weight_sum += by_byte(&KR_ROW_WEIGHTS, k.ku);
    }

    /// Characters recorded.
    pub fn chars(&self) -> u32 {
        self.chars
    }

    /// Mean typicality in [0, 1].
    pub fn score(&self) -> f64 {
        if self.chars == 0 {
            0.0
        } else {
            self.weight_sum / self.chars as f64
        }
    }
}

const fn cn_row_weights() -> [f64; 256] {
    use crate::dbcs::rows as cn;
    let mut t = [0.05f64; 256];
    let mut ku = 1usize;
    while ku < 95 {
        t[ku] = match ku as u8 {
            ku if ku >= cn::HANZI_L1_FIRST && ku <= cn::HANZI_L1_LAST => 0.95,
            ku if ku > cn::HANZI_L1_LAST && ku <= cn::HANZI_L2_LAST => 0.75,
            1..=9 => 0.6, // GB symbol rows
            _ => 0.05,
        };
        ku += 1;
    }
    t
}

static CN_ROW_WEIGHTS: [f64; 256] = cn_row_weights();

/// Accumulates decoded GB 2312 cells and scores how much they look like
/// Simplified-Chinese text (level-1 hanzi core + steady level-2 tail).
#[derive(Debug, Default, Clone)]
pub struct ChineseDistribution {
    chars: u32,
    weight_sum: f64,
}

impl ChineseDistribution {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one decoded cell.
    #[inline]
    pub fn add_cell(&mut self, k: Kuten) {
        self.chars += 1;
        self.weight_sum += by_byte(&CN_ROW_WEIGHTS, k.ku);
    }

    /// Characters recorded.
    pub fn chars(&self) -> u32 {
        self.chars
    }

    /// Mean typicality in [0, 1].
    pub fn score(&self) -> f64 {
        if self.chars == 0 {
            0.0
        } else {
            self.weight_sum / self.chars as f64
        }
    }
}

/// Accumulates Unicode code points (from a valid UTF-8 decoding) and
/// classifies the dominant script, for [`crate::Detection::language`] on
/// UTF-8 pages.
#[derive(Debug, Default, Clone)]
pub struct UnicodeBlocks {
    /// Kana counts (the unambiguous Japanese signal).
    pub kana: u32,
    /// CJK Unified Ideograph counts (shared by Japanese and Chinese).
    pub cjk: u32,
    /// Hangul syllable counts.
    pub hangul: u32,
    /// Thai block counts.
    pub thai: u32,
    /// Everything else non-ASCII.
    pub other: u32,
    /// ASCII letters/digits.
    pub ascii: u32,
}

impl UnicodeBlocks {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one decoded scalar value.
    #[inline]
    pub fn add(&mut self, cp: u32) {
        match cp {
            0x0000..=0x007F => self.ascii += 1,
            0x3040..=0x30FF | 0xFF66..=0xFF9F => self.kana += 1,
            0x3000..=0x303F | 0xFF00..=0xFF65 => self.cjk += 1, // CJK punct/width forms
            0x4E00..=0x9FFF => self.cjk += 1,
            0xAC00..=0xD7AF => self.hangul += 1,
            0x0E00..=0x0E7F => self.thai += 1,
            _ => self.other += 1,
        }
    }

    /// Scalar values recorded outside ASCII.
    pub(crate) fn non_ascii(&self) -> u32 {
        self.kana + self.cjk + self.hangul + self.thai + self.other
    }

    /// The dominant non-ASCII script, if any script clearly dominates.
    ///
    /// CJK ideographs are shared between Japanese and Chinese; the
    /// standard heuristic applies: any meaningful kana presence means
    /// Japanese, a kana-free ideograph text is Chinese.
    pub fn dominant(&self) -> Option<crate::Language> {
        let non_ascii = self.non_ascii();
        if non_ascii == 0 {
            return None;
        }
        let n = non_ascii as f64;
        let jp_cn = (self.kana + self.cjk) as f64 / n;
        if self.hangul as f64 / n > 0.5 {
            return Some(crate::Language::Korean);
        }
        if self.thai as f64 / n > 0.5 {
            return Some(crate::Language::Thai);
        }
        if jp_cn > 0.5 {
            let kana_share = self.kana as f64 / (self.kana + self.cjk).max(1) as f64;
            return Some(if kana_share >= 0.05 {
                crate::Language::Japanese
            } else {
                crate::Language::Chinese
            });
        }
        Some(crate::Language::Other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hiragana_scores_high() {
        let mut d = JapaneseDistribution::new();
        for ten in 1..=40 {
            d.add_kuten(Kuten::new(rows::HIRAGANA, ten).unwrap());
        }
        assert!(d.score() > 0.95);
        assert!((d.hiragana_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rare_rows_score_low() {
        let mut d = JapaneseDistribution::new();
        for ten in 1..=40 {
            d.add_kuten(Kuten::new(7, ten).unwrap()); // Cyrillic row
        }
        assert!(d.score() < 0.1);
    }

    #[test]
    fn mixed_realistic_text_scores_high() {
        let mut d = JapaneseDistribution::new();
        // ~50% hiragana, 30% level-1 kanji, 10% katakana, 10% punct.
        for i in 0..50u8 {
            d.add_kuten(Kuten::new(rows::HIRAGANA, i % 80 + 1).unwrap());
        }
        for i in 0..30u8 {
            d.add_kuten(Kuten::new(20 + i % 20, i % 90 + 1).unwrap());
        }
        for i in 0..10u8 {
            d.add_kuten(Kuten::new(rows::KATAKANA, i % 80 + 1).unwrap());
        }
        for i in 0..10u8 {
            d.add_kuten(Kuten::new(rows::PUNCT, i % 10 + 1).unwrap());
        }
        assert!(d.score() > 0.85, "score {}", d.score());
    }

    #[test]
    fn all_halfwidth_is_penalized() {
        let mut d = JapaneseDistribution::new();
        for _ in 0..30 {
            d.add_halfwidth_kana();
        }
        assert!(d.score() < 0.3);
        // But a minority of half-width among real text is fine.
        let mut d2 = JapaneseDistribution::new();
        for ten in 1..=30 {
            d2.add_kuten(Kuten::new(rows::HIRAGANA, ten).unwrap());
        }
        for _ in 0..5 {
            d2.add_halfwidth_kana();
        }
        assert!(d2.score() > 0.8);
    }

    #[test]
    fn empty_scores_zero() {
        assert_eq!(JapaneseDistribution::new().score(), 0.0);
    }

    #[test]
    fn unicode_block_classification() {
        let mut u = UnicodeBlocks::new();
        for c in "こんにちは世界".chars() {
            u.add(c as u32);
        }
        assert_eq!(u.dominant(), Some(crate::Language::Japanese));

        let mut t = UnicodeBlocks::new();
        for c in "สวัสดีครับ".chars() {
            t.add(c as u32);
        }
        assert_eq!(t.dominant(), Some(crate::Language::Thai));

        let mut a = UnicodeBlocks::new();
        for c in "hello".chars() {
            a.add(c as u32);
        }
        assert_eq!(a.dominant(), None);

        let mut o = UnicodeBlocks::new();
        for c in "привет мир".chars() {
            o.add(c as u32);
        }
        assert_eq!(o.dominant(), Some(crate::Language::Other));
    }
}
