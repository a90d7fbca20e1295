//! Language text models — token-stream generation for page bodies.
//!
//! Content-mode simulation needs page *bytes* whose statistical profile
//! matches real text in the page's language, or the byte-distribution
//! detector would be working on caricatures. The models here reproduce
//! the coarse statistics detection actually keys on:
//!
//! * Japanese running text: ~46% hiragana, ~10% katakana, ~30% kanji
//!   concentrated in the JIS level-1 rows, punctuation, occasional ASCII
//!   (matches [`langcrawl_charset::kuten::row_weight`]);
//! * Thai: syllables of consonant (+above/below vowel) (+tone mark) with
//!   leading-vowel syllables mixed in — the transition structure the
//!   Thai prober scores;
//! * English-ish ASCII filler for irrelevant pages.
//!
//! Generators draw whole bursts, then truncate to the token count.
//! Stopping mid-burst instead would shift the RNG stream, and with it every
//! later text on the page (`tests/synthesis_golden.rs` pins those bytes).

use langcrawl_charset::dbcs::DbToken;
use langcrawl_charset::encode::{JaToken, ThToken};
use langcrawl_charset::kuten::{rows, Kuten};

use langcrawl_rng::Rng;

/// Generate `n` tokens of model Japanese text.
pub fn japanese_tokens(n: usize, rng: &mut Rng) -> Vec<JaToken> {
    let mut out = Vec::with_capacity(n);
    japanese_tokens_into(n, rng, &mut out);
    out
}

/// [`japanese_tokens`] into `out`, which is cleared first.
pub(crate) fn japanese_tokens_into(n: usize, rng: &mut Rng, out: &mut Vec<JaToken>) {
    out.clear();
    while out.len() < n {
        match rng.random_range(0..100u32) {
            // Hiragana runs (particles, okurigana) come in bursts.
            0..=45 => {
                let run = rng.random_range(1..=4);
                for _ in 0..run {
                    out.push(JaToken::K(
                        Kuten::new(rows::HIRAGANA, rng.random_range(1..=83)).unwrap(),
                    ));
                }
            }
            46..=55 => {
                let run = rng.random_range(1..=5);
                for _ in 0..run {
                    out.push(JaToken::K(
                        Kuten::new(rows::KATAKANA, rng.random_range(1..=86)).unwrap(),
                    ));
                }
            }
            56..=85 => {
                // Level-1 kanji, biased to the lower rows where the most
                // frequent characters sit.
                let ku = rows::KANJI_FIRST
                    + rng.random_range(0..=(rows::KANJI_LEVEL1_LAST - rows::KANJI_FIRST));
                out.push(JaToken::K(
                    Kuten::new(ku, rng.random_range(1..=94)).unwrap(),
                ));
            }
            86..=92 => {
                // Ideographic punctuation: 、 。 ・ etc.
                out.push(JaToken::K(
                    Kuten::new(rows::PUNCT, rng.random_range(1..=10)).unwrap(),
                ));
            }
            _ => {
                // An ASCII word (numbers, Latin brand names).
                for _ in 0..rng.random_range(2..6) {
                    out.push(JaToken::Ascii(rng.random_range(b'a'..=b'z')));
                }
                out.push(JaToken::Ascii(b' '));
            }
        }
    }
    out.truncate(n);
}

/// Thai consonants that open syllables, as TIS-620 bytes.
const THAI_CONSONANTS: &[u8] = &[
    0xA1, 0xA2, 0xA4, 0xA7, 0xA8, 0xAA, 0xAB, 0xAD, 0xB4, 0xB5, 0xB7, 0xB9, 0xBA, 0xBB, 0xBE, 0xBF,
    0xC1, 0xC2, 0xC3, 0xC5, 0xC7, 0xCA, 0xCB, 0xCD, 0xCE,
];
/// Above/below vowels (combining).
const THAI_AB_VOWELS: &[u8] = &[0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9];
/// Following vowels (spacing).
const THAI_FOLLOW_VOWELS: &[u8] = &[0xD0, 0xD1, 0xD2, 0xD3];
/// Leading vowels.
const THAI_LEAD_VOWELS: &[u8] = &[0xE0, 0xE1, 0xE2, 0xE3, 0xE4];
/// Tone marks (combining).
const THAI_TONES: &[u8] = &[0xE8, 0xE9, 0xEA, 0xEB];

/// Generate `n` tokens of model Thai text (canonical syllable structure).
pub fn thai_tokens(n: usize, rng: &mut Rng) -> Vec<ThToken> {
    let mut out = Vec::with_capacity(n);
    thai_tokens_into(n, rng, &mut out);
    out
}

/// [`thai_tokens`] into `out`, which is cleared first.
pub(crate) fn thai_tokens_into(n: usize, rng: &mut Rng, out: &mut Vec<ThToken>) {
    out.clear();
    let pick = |set: &[u8], rng: &mut Rng| set[rng.random_range(0..set.len())];
    while out.len() < n {
        // Optional leading vowel, consonant, optional vowel, optional tone,
        // optional final consonant — a defensible approximation of Thai
        // orthotactics.
        if rng.random_bool(0.25) {
            out.push(ThToken::Thai(pick(THAI_LEAD_VOWELS, rng)));
        }
        out.push(ThToken::Thai(pick(THAI_CONSONANTS, rng)));
        match rng.random_range(0..10u32) {
            0..=4 => out.push(ThToken::Thai(pick(THAI_AB_VOWELS, rng))),
            5..=7 => out.push(ThToken::Thai(pick(THAI_FOLLOW_VOWELS, rng))),
            _ => {}
        }
        if rng.random_bool(0.35) {
            out.push(ThToken::Thai(pick(THAI_TONES, rng)));
        }
        if rng.random_bool(0.5) {
            out.push(ThToken::Thai(pick(THAI_CONSONANTS, rng)));
        }
        // Thai writes without inter-word spaces; insert one occasionally
        // (phrase breaks) plus rare ASCII digits.
        if rng.random_bool(0.12) {
            out.push(ThToken::Ascii(b' '));
        }
        if rng.random_bool(0.02) {
            for _ in 0..rng.random_range(1..4) {
                out.push(ThToken::Ascii(rng.random_range(b'0'..=b'9')));
            }
        }
    }
    out.truncate(n);
}

/// Generate `n` tokens of model Korean text: precomposed hangul (KS X
/// 1001 rows 16..=40), spaces between words, rare ASCII digits.
pub fn korean_tokens(n: usize, rng: &mut Rng) -> Vec<DbToken> {
    let mut out = Vec::with_capacity(n);
    korean_tokens_into(n, rng, &mut out);
    out
}

/// [`korean_tokens`] into `out`, which is cleared first.
pub(crate) fn korean_tokens_into(n: usize, rng: &mut Rng, out: &mut Vec<DbToken>) {
    out.clear();
    while out.len() < n {
        // A word of 1..=4 syllables.
        for _ in 0..rng.random_range(1..=4) {
            let ku = 16 + rng.random_range(0..25) as u8;
            let ten = 1 + rng.random_range(0..94) as u8;
            out.push(DbToken::Cell(Kuten::new(ku, ten).unwrap()));
        }
        out.push(DbToken::Ascii(b' '));
        if rng.random_bool(0.03) {
            for _ in 0..rng.random_range(1..4) {
                out.push(DbToken::Ascii(rng.random_range(b'0'..=b'9')));
            }
        }
    }
    out.truncate(n);
}

/// Generate `n` tokens of model Simplified-Chinese text: level-1 hanzi
/// core, a steady level-2 tail, GB symbol punctuation, no inter-word
/// spaces.
pub fn chinese_tokens(n: usize, rng: &mut Rng) -> Vec<DbToken> {
    let mut out = Vec::with_capacity(n);
    chinese_tokens_into(n, rng, &mut out);
    out
}

/// [`chinese_tokens`] into `out`, which is cleared first.
pub(crate) fn chinese_tokens_into(n: usize, rng: &mut Rng, out: &mut Vec<DbToken>) {
    out.clear();
    while out.len() < n {
        let (ku, ten) = match rng.random_range(0..100u32) {
            0..=64 => (
                16 + rng.random_range(0..40) as u8,
                1 + rng.random_range(0..94) as u8,
            ),
            65..=94 => (
                56 + rng.random_range(0..32) as u8,
                1 + rng.random_range(0..94) as u8,
            ),
            _ => (1u8, 1 + rng.random_range(0..10) as u8),
        };
        out.push(DbToken::Cell(Kuten::new(ku, ten).unwrap()));
        if rng.random_bool(0.04) {
            out.push(DbToken::Ascii(b' '));
        }
    }
    out.truncate(n);
}

/// English-like filler words for irrelevant pages.
pub fn english_words(n_words: usize, rng: &mut Rng) -> String {
    let mut s = Vec::with_capacity(n_words * 6);
    write_english_words(n_words, rng, &mut s);
    String::from_utf8(s).expect("the filler words are ASCII")
}

/// [`english_words`], appended to `out`. The words are ASCII, so these are
/// their bytes in every charset the filler is served in.
pub(crate) fn write_english_words(n_words: usize, rng: &mut Rng, out: &mut Vec<u8>) {
    const WORDS: &[&str] = &[
        "the", "of", "and", "to", "in", "for", "is", "on", "that", "by", "this", "with", "you",
        "it", "not", "or", "be", "are", "from", "at", "as", "your", "all", "have", "new", "more",
        "page", "home", "search", "news", "about", "contact", "site", "web", "info", "service",
        "product", "company", "online", "free",
    ];
    for i in 0..n_words {
        if i > 0 {
            out.push(b' ');
        }
        out.extend_from_slice(WORDS[rng.random_range(0..WORDS.len())].as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrawl_charset::thai;
    use langcrawl_rng::Rng;

    #[test]
    fn japanese_token_mix_is_realistic() {
        let mut rng = Rng::seed_from_u64(1);
        let toks = japanese_tokens(5_000, &mut rng);
        assert_eq!(toks.len(), 5_000);
        let hira = toks
            .iter()
            .filter(|t| matches!(t, JaToken::K(k) if k.is_hiragana()))
            .count() as f64
            / 5_000.0;
        assert!((0.25..0.60).contains(&hira), "hiragana share {hira}");
    }

    #[test]
    fn thai_tokens_are_assigned_bytes() {
        let mut rng = Rng::seed_from_u64(2);
        for t in thai_tokens(2_000, &mut rng) {
            if let ThToken::Thai(b) = t {
                assert!(thai::is_thai_byte(b), "{b:02X}");
            }
        }
    }

    #[test]
    fn thai_orthography_scores_positive() {
        let mut rng = Rng::seed_from_u64(3);
        let toks = thai_tokens(1_000, &mut rng);
        let bytes: Vec<u8> = toks
            .iter()
            .map(|t| match t {
                ThToken::Thai(b) => *b,
                ThToken::Ascii(b) => *b,
            })
            .collect();
        let mut score = 0i64;
        let mut pairs = 0u32;
        for w in bytes.windows(2) {
            if w[0] >= 0x80 || w[1] >= 0x80 {
                score += thai::pair_score(w[0], w[1]) as i64;
                pairs += 1;
            }
        }
        let avg = score as f64 / pairs as f64;
        assert!(avg > 0.4, "avg pair score {avg}");
    }

    #[test]
    fn korean_tokens_are_hangul_rows() {
        let mut rng = Rng::seed_from_u64(5);
        for t in korean_tokens(1_000, &mut rng) {
            if let DbToken::Cell(k) = t {
                assert!((16..=40).contains(&k.ku), "row {}", k.ku);
            }
        }
    }

    #[test]
    fn chinese_tokens_have_level2_tail() {
        let mut rng = Rng::seed_from_u64(6);
        let toks = chinese_tokens(2_000, &mut rng);
        let l2 = toks
            .iter()
            .filter(|t| matches!(t, DbToken::Cell(k) if (56..=87).contains(&k.ku)))
            .count() as f64
            / toks.len() as f64;
        assert!((0.15..0.45).contains(&l2), "level-2 share {l2}");
    }

    #[test]
    fn english_words_are_ascii() {
        let mut rng = Rng::seed_from_u64(4);
        let s = english_words(200, &mut rng);
        assert!(s.is_ascii());
        assert!(s.split(' ').count() == 200);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = japanese_tokens(100, &mut Rng::seed_from_u64(9));
        let b = japanese_tokens(100, &mut Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
