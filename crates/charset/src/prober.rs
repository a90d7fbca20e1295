//! Per-encoding probers: validity + distribution, producing a confidence.
//!
//! Each prober owns a verifier ([`crate::sm`]) and, where the encoding
//! needs it, a distribution accumulator ([`crate::dist`]). The composite
//! detector feeds the document to the probers and takes the
//! highest-confidence survivor — the architecture of the Mozilla composite
//! detector the paper used, rebuilt small.
//!
//! Probers share a word-wise ASCII fast path: whenever an automaton sits
//! at a character boundary, a run of 7-bit bytes carries no distribution
//! signal and cannot change the verifier state, so [`ascii_run`] skips it
//! eight bytes at a time. Real pages are mostly ASCII markup around the
//! encoded text, which makes this the dominant byte class even on
//! non-English documents.

use crate::dist::{ChineseDistribution, JapaneseDistribution, KoreanDistribution, UnicodeBlocks};
use crate::kuten::Kuten;
use crate::sm::{
    Euc94Verifier, EucJpVerifier, Iso2022JpVerifier, ShiftJisVerifier, SmState, Utf8Verifier,
    Verifier,
};
use crate::thai;
use crate::types::{Charset, Language};

const HI_BITS: u64 = 0x8080_8080_8080_8080;
const LO_BITS: u64 = 0x0101_0101_0101_0101;

/// Length of the run of 7-bit bytes starting at `start`, found eight
/// bytes at a time (high-bit test per `u64` word).
#[inline]
pub(crate) fn ascii_run(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    while i + 8 <= bytes.len() {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap_or([0; 8]));
        let hit = w & HI_BITS;
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize - start;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] < 0x80 {
        i += 1;
    }
    i - start
}

/// Like [`ascii_run`] but the run also stops at an ESC byte (0x1B) —
/// the one 7-bit byte that is *not* inert for ISO-2022-JP detection.
/// The ESC scan uses Mycroft's exact zero-byte trick on `w ^ 0x1B…1B`.
#[inline]
pub(crate) fn ascii_run_no_esc(bytes: &[u8], start: usize) -> usize {
    const ESC_PAT: u64 = 0x1B1B_1B1B_1B1B_1B1B;
    let mut i = start;
    while i + 8 <= bytes.len() {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap_or([0; 8]));
        let x = w ^ ESC_PAT;
        let hit = (w & HI_BITS) | (x.wrapping_sub(LO_BITS) & !x & HI_BITS);
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize - start;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] < 0x80 && bytes[i] != 0x1B {
        i += 1;
    }
    i - start
}

/// A charset prober: consumes bytes, reports a confidence.
pub trait Prober {
    /// Feed the next piece of the document. Successive calls take
    /// consecutive pieces of one document, split anywhere (even inside a
    /// character): feeding it whole or in pieces gives the same verdict.
    /// Probers are single-document; create a new one per document.
    fn feed(&mut self, bytes: &[u8]);
    /// The charset this prober argues for, given what it has seen.
    fn charset(&self) -> Charset;
    /// Confidence in [0, 1]. Zero once an illegal sequence was seen.
    fn confidence(&self) -> f64;
    /// Language evidence, when the prober can supply one beyond the
    /// charset's Table 1 mapping (used by the UTF-8 prober).
    fn language_hint(&self) -> Option<Language> {
        self.charset().language()
    }
}

// ------------------------------------------------------------------- EUC-JP

/// EUC-JP prober: validity machine + kuten-row distribution.
#[derive(Debug, Default)]
pub struct EucJpProber {
    v: EucJpVerifier,
    dist: JapaneseDistribution,
    lead: Option<u8>,
    ss2: bool,
    dead: bool,
}

impl EucJpProber {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prober for EucJpProber {
    fn feed(&mut self, bytes: &[u8]) {
        if self.dead {
            return;
        }
        let mut i = 0;
        // At a boundary (no pending lead / SS2) an ASCII run is inert:
        // each byte is its own character and carries no distribution
        // signal.
        let mut clean = self.lead.is_none() && !self.ss2 && self.v.at_boundary();
        while i < bytes.len() {
            if clean {
                i += ascii_run(bytes, i);
                if i >= bytes.len() {
                    return;
                }
            }
            let b = bytes[i];
            i += 1;
            match self.v.feed(b) {
                SmState::Error => {
                    self.dead = true;
                    return;
                }
                SmState::Continue => {
                    clean = false;
                    if b == 0x8E {
                        self.ss2 = true;
                        self.lead = None;
                    } else if b == 0x8F {
                        self.ss2 = false;
                        self.lead = None;
                    } else if self.lead.is_none() && !self.ss2 {
                        self.lead = Some(b);
                    }
                }
                SmState::CharBoundary => {
                    clean = true;
                    if self.ss2 {
                        self.dist.add_halfwidth_kana();
                        self.ss2 = false;
                    } else if let Some(l) = self.lead.take() {
                        if let Some(k) = Kuten::from_eucjp(l, b) {
                            self.dist.add_kuten(k);
                        }
                    }
                    // ASCII boundaries carry no distribution signal.
                }
            }
        }
    }

    fn charset(&self) -> Charset {
        Charset::EucJp
    }

    fn confidence(&self) -> f64 {
        if self.dead || !self.v.at_boundary() {
            return 0.0;
        }
        self.dist.score()
    }
}

// ---------------------------------------------------------------- Shift_JIS

/// Shift_JIS prober: validity machine + kuten-row distribution (with
/// half-width-kana penalty — the classic EUC-vs-SJIS confusion).
#[derive(Debug, Default)]
pub struct ShiftJisProber {
    v: ShiftJisVerifier,
    dist: JapaneseDistribution,
    lead: Option<u8>,
    dead: bool,
}

impl ShiftJisProber {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prober for ShiftJisProber {
    fn feed(&mut self, bytes: &[u8]) {
        if self.dead {
            return;
        }
        let mut i = 0;
        let mut clean = self.lead.is_none() && self.v.at_boundary();
        while i < bytes.len() {
            if clean {
                i += ascii_run(bytes, i);
                if i >= bytes.len() {
                    return;
                }
            }
            let b = bytes[i];
            i += 1;
            match self.v.feed(b) {
                SmState::Error => {
                    self.dead = true;
                    return;
                }
                SmState::Continue => {
                    clean = false;
                    self.lead = Some(b);
                }
                SmState::CharBoundary => {
                    clean = true;
                    if let Some(l) = self.lead.take() {
                        if let Some(k) = Kuten::from_sjis(l, b) {
                            self.dist.add_kuten(k);
                        }
                    } else if (0xA1..=0xDF).contains(&b) {
                        self.dist.add_halfwidth_kana();
                    }
                }
            }
        }
    }

    fn charset(&self) -> Charset {
        Charset::ShiftJis
    }

    fn confidence(&self) -> f64 {
        if self.dead || !self.v.at_boundary() {
            return 0.0;
        }
        self.dist.score()
    }
}

// -------------------------------------------------------------- ISO-2022-JP

/// ISO-2022-JP prober: pure coding-scheme detection. One recognised
/// designation escape is near-conclusive — no other web encoding uses
/// `ESC $ B`.
#[derive(Debug, Default)]
pub struct Iso2022JpProber {
    v: Iso2022JpVerifier,
    dead: bool,
}

impl Iso2022JpProber {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prober for Iso2022JpProber {
    fn feed(&mut self, bytes: &[u8]) {
        if self.dead {
            return;
        }
        let mut i = 0;
        while i < bytes.len() {
            if self.v.in_ascii_text() {
                // Skip to the next ESC or 8-bit byte; plain ASCII never
                // changes the designation.
                i += ascii_run_no_esc(bytes, i);
                if i >= bytes.len() {
                    return;
                }
            }
            let b = bytes[i];
            i += 1;
            if self.v.feed(b) == SmState::Error {
                self.dead = true;
                return;
            }
        }
    }

    fn charset(&self) -> Charset {
        Charset::Iso2022Jp
    }

    fn confidence(&self) -> f64 {
        if self.dead || self.v.escapes_seen() == 0 {
            0.0
        } else {
            0.99
        }
    }
}

// -------------------------------------------------------------------- UTF-8

/// UTF-8 prober: validity machine + Unicode block census.
#[derive(Debug, Default)]
pub struct Utf8Prober {
    v: Utf8Verifier,
    blocks: UnicodeBlocks,
    multibyte: u32,
    /// Bytes of the current character seen so far (0 at a boundary).
    pending: u32,
    /// Payload bits of the current character decoded so far; kept across
    /// `feed` calls so a character split between pieces decodes whole.
    cp: u32,
    dead: bool,
}

impl Utf8Prober {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }

    fn flush_char(&mut self, bytes: u32) {
        if bytes > 1 {
            self.multibyte += 1;
        }
    }
}

impl Prober for Utf8Prober {
    fn feed(&mut self, bytes: &[u8]) {
        // Track scalar values for the block census with a small inline
        // decoder (the verifier guarantees validity). ASCII runs between
        // characters are skipped whole: they cannot affect the verdict
        // (confidence counts multibyte chars, the census ignores ASCII).
        let mut i = 0;
        while i < bytes.len() {
            if self.dead {
                return;
            }
            if self.pending == 0 {
                i += ascii_run(bytes, i);
                if i >= bytes.len() {
                    return;
                }
            }
            let b = bytes[i];
            i += 1;
            match self.v.feed(b) {
                SmState::Error => {
                    self.dead = true;
                    return;
                }
                SmState::Continue => {
                    if self.pending == 0 {
                        // Lead byte: extract payload bits.
                        self.cp = match b {
                            0xC2..=0xDF => (b & 0x1F) as u32,
                            0xE0..=0xEF => (b & 0x0F) as u32,
                            _ => (b & 0x07) as u32,
                        };
                        self.pending = 1;
                    } else {
                        self.cp = (self.cp << 6) | (b & 0x3F) as u32;
                        self.pending += 1;
                    }
                }
                SmState::CharBoundary => {
                    if self.pending > 0 {
                        self.cp = (self.cp << 6) | (b & 0x3F) as u32;
                        self.blocks.add(self.cp);
                        self.flush_char(self.pending + 1);
                        self.pending = 0;
                    } else {
                        self.blocks.add(b as u32);
                    }
                }
            }
        }
    }

    fn charset(&self) -> Charset {
        Charset::Utf8
    }

    fn confidence(&self) -> f64 {
        if self.dead || !self.v.at_boundary() {
            return 0.0;
        }
        if self.multibyte == 0 {
            // Plain ASCII: valid UTF-8 but no positive evidence.
            0.0
        } else {
            // Multibyte UTF-8 that never tripped the verifier is UTF-8
            // with very high probability; random legacy bytes break the
            // continuation pattern almost immediately.
            (0.85 + 0.005 * self.multibyte as f64).min(0.99)
        }
    }

    fn language_hint(&self) -> Option<Language> {
        self.blocks.dominant()
    }
}

// ------------------------------------------------------ EUC-KR / GB2312

/// The shared scan behind [`EucKrProber`] and [`Gb2312Prober`]: both ride
/// the identical 94×94 EUC validity machine and cell decode, so the
/// composite detector walks the bytes once and feeds *both* distributions
/// from the same decoded cells.
#[derive(Debug, Default)]
pub(crate) struct EucCnKrScan {
    v: Euc94Verifier,
    kr: KoreanDistribution,
    cn: ChineseDistribution,
    lead: Option<u8>,
    dead: bool,
}

impl EucCnKrScan {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if self.dead {
            return;
        }
        let mut i = 0;
        let mut clean = self.lead.is_none() && self.v.at_boundary();
        while i < bytes.len() {
            if clean {
                i += ascii_run(bytes, i);
                if i >= bytes.len() {
                    return;
                }
            }
            let b = bytes[i];
            i += 1;
            match self.v.feed(b) {
                SmState::Error => {
                    self.dead = true;
                    return;
                }
                SmState::Continue => {
                    clean = false;
                    self.lead = Some(b);
                }
                SmState::CharBoundary => {
                    clean = true;
                    if let Some(l) = self.lead.take() {
                        if let Some(k) = Kuten::from_eucjp(l, b) {
                            self.kr.add_cell(k);
                            self.cn.add_cell(k);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn kr_confidence(&self) -> f64 {
        if self.dead || !self.v.at_boundary() {
            return 0.0;
        }
        self.kr.score()
    }

    pub(crate) fn cn_confidence(&self) -> f64 {
        if self.dead || !self.v.at_boundary() {
            return 0.0;
        }
        self.cn.score()
    }
}

/// EUC-KR prober: the generic 94×94 EUC validity machine + the Korean
/// (hangul-row) distribution.
#[derive(Debug, Default)]
pub struct EucKrProber {
    scan: EucCnKrScan,
}

impl EucKrProber {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prober for EucKrProber {
    fn feed(&mut self, bytes: &[u8]) {
        self.scan.feed(bytes);
    }

    fn charset(&self) -> Charset {
        Charset::EucKr
    }

    fn confidence(&self) -> f64 {
        self.scan.kr_confidence()
    }
}

/// GB2312 prober: the generic EUC validity machine + the Chinese
/// (hanzi level-1/level-2) distribution. Korean hangul-only byte streams
/// land in the Chinese level-1 rows too; the level-2 tail (present in
/// real Chinese text, absent in hangul) plus the Korean prober's higher
/// in-model score break the tie.
#[derive(Debug, Default)]
pub struct Gb2312Prober {
    scan: EucCnKrScan,
}

impl Gb2312Prober {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prober for Gb2312Prober {
    fn feed(&mut self, bytes: &[u8]) {
        self.scan.feed(bytes);
    }

    fn charset(&self) -> Charset {
        Charset::Gb2312
    }

    fn confidence(&self) -> f64 {
        self.scan.cn_confidence()
    }
}

// ------------------------------------------------------------- Thai family

/// Thai single-byte prober covering TIS-620 / Windows-874 / ISO-8859-11.
///
/// Scores the *orthography*: transitions between Thai character classes
/// ([`thai::pair_score`]). Family member is picked from the marker bytes
/// that distinguish the three supersets.
#[derive(Debug)]
pub struct ThaiProber {
    prev: u8,
    thai_bytes: u32,
    high_bytes: u32,
    pair_score: i64,
    pairs: u32,
    saw_win874_marker: bool,
    saw_nbsp: bool,
    dead: bool,
}

impl Default for ThaiProber {
    fn default() -> Self {
        Self::new()
    }
}

impl ThaiProber {
    /// Fresh prober.
    pub fn new() -> Self {
        ThaiProber {
            prev: b' ',
            thai_bytes: 0,
            high_bytes: 0,
            pair_score: 0,
            pairs: 0,
            saw_win874_marker: false,
            saw_nbsp: false,
            dead: false,
        }
    }
}

impl Prober for ThaiProber {
    fn feed(&mut self, bytes: &[u8]) {
        if self.dead {
            return;
        }
        let mut i = 0;
        while i < bytes.len() {
            // A run of ASCII after an ASCII byte contributes no pairs
            // and no byte counts; only its last byte matters, as the
            // left neighbour of whatever follows.
            if self.prev < 0x80 {
                let run = ascii_run(bytes, i);
                if run > 0 {
                    self.prev = bytes[i + run - 1];
                    i += run;
                    if i >= bytes.len() {
                        return;
                    }
                }
            }
            let b = bytes[i];
            i += 1;
            if b >= 0x80 {
                self.high_bytes += 1;
                if thai::is_thai_byte(b) {
                    self.thai_bytes += 1;
                } else if b == 0x80 || b == 0x85 || (0x91..=0x97).contains(&b) {
                    self.saw_win874_marker = true;
                } else if b == 0xA0 {
                    self.saw_nbsp = true;
                } else {
                    // A byte no family member assigns: not Thai text.
                    self.dead = true;
                    return;
                }
            }
            if self.prev >= 0x80 || b >= 0x80 {
                self.pair_score += thai::pair_score(self.prev, b) as i64;
                self.pairs += 1;
            }
            self.prev = b;
        }
    }

    fn charset(&self) -> Charset {
        if self.saw_win874_marker {
            Charset::Windows874
        } else if self.saw_nbsp {
            Charset::Iso885911
        } else {
            Charset::Tis620
        }
    }

    fn confidence(&self) -> f64 {
        if self.dead || self.thai_bytes == 0 {
            return 0.0;
        }
        let thai_ratio = self.thai_bytes as f64 / self.high_bytes.max(1) as f64;
        let avg_pair = if self.pairs == 0 {
            0.0
        } else {
            self.pair_score as f64 / self.pairs as f64
        };
        // avg_pair for genuine Thai text sits around +0.8..+1.5; for
        // Latin-1-ish bytes that merely *land* in the Thai range it hovers
        // near zero or below, because combining marks follow letters that
        // cannot carry them. Orthography therefore gates the verdict:
        // in-range bytes alone must never outbid the Latin-1 floor.
        if avg_pair <= 0.15 {
            return (thai_ratio * 0.05).clamp(0.0, 1.0);
        }
        let ortho = (avg_pair / 1.2).clamp(0.0, 1.0);
        (thai_ratio * (0.35 + 0.65 * ortho)).clamp(0.0, 1.0)
    }
}

// ------------------------------------------------------------------ Latin-1

/// Latin-1 catch-all prober. Every byte string is "valid" Latin-1, so this
/// prober never argues loudly — it supplies a floor so that Western
/// European text with accented letters beats `Unknown` without ever
/// outbidding a structural match.
#[derive(Debug, Default)]
pub struct Latin1Prober {
    high: u32,
    c1: u32,
    total: u32,
    letter_adjacent: u32,
    prev_alpha: bool,
}

impl Latin1Prober {
    /// Confidence of a text with high bytes and few C1 controls.
    const BASE: f64 = 0.10;
    /// Bonus at full embedding: every high byte follows a letter.
    const EMBED_WEIGHT: f64 = 0.15;
    /// The highest confidence the prober can report, reached when every
    /// high byte follows a letter. The composite detector skips this
    /// prober once a structured prober scores at least this much.
    pub const CEILING: f64 = Self::BASE + Self::EMBED_WEIGHT;

    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prober for Latin1Prober {
    fn feed(&mut self, bytes: &[u8]) {
        let mut i = 0;
        while i < bytes.len() {
            // ASCII runs only advance the totals; the C1 / accented-letter
            // statistics all need an 8-bit byte.
            let run = ascii_run(bytes, i);
            if run > 0 {
                self.total += run as u32;
                self.prev_alpha = bytes[i + run - 1].is_ascii_alphabetic();
                i += run;
                if i >= bytes.len() {
                    return;
                }
            }
            let b = bytes[i];
            i += 1;
            self.total += 1;
            if (0x80..=0x9F).contains(&b) {
                self.c1 += 1;
            }
            if b >= 0xA0 {
                self.high += 1;
                if self.prev_alpha {
                    // Accented letters embedded in words — the Latin-1 look.
                    self.letter_adjacent += 1;
                }
            }
            self.prev_alpha = b.is_ascii_alphabetic() || b >= 0xC0;
        }
    }

    fn charset(&self) -> Charset {
        Charset::Latin1
    }

    fn confidence(&self) -> f64 {
        if self.total == 0 || self.high == 0 {
            return 0.0;
        }
        // C1 control bytes are essentially never intentional Latin-1.
        let c1_ratio = self.c1 as f64 / self.total as f64;
        if c1_ratio > 0.05 {
            return 0.01;
        }
        // `letter_adjacent <= high`, so `embed <= 1` and the result is
        // at most `CEILING` (rounding is monotone).
        let embed = self.letter_adjacent as f64 / self.high as f64;
        Self::BASE + Self::EMBED_WEIGHT * embed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dbcs, encode};

    fn probe<P: Prober>(mut p: P, bytes: &[u8]) -> f64 {
        p.feed(bytes);
        p.confidence()
    }

    #[test]
    fn ascii_run_helpers_find_stops() {
        let mut v = vec![b'a'; 37];
        assert_eq!(ascii_run(&v, 0), 37);
        assert_eq!(ascii_run_no_esc(&v, 0), 37);
        v.push(0xA4);
        v.extend_from_slice(&[b'x'; 9]);
        assert_eq!(ascii_run(&v, 0), 37);
        assert_eq!(ascii_run(&v, 38), 9);
        let esc = [b'a', b'b', 0x1B, b'c'];
        assert_eq!(ascii_run(&esc, 0), 4, "plain run ignores ESC");
        assert_eq!(ascii_run_no_esc(&esc, 0), 2, "no-ESC run stops at it");
        // Stops inside the 8-byte fast path, at every lane.
        for lane in 0..16 {
            let mut w = vec![b' '; 24];
            w[lane] = 0x9B;
            assert_eq!(ascii_run(&w, 0), lane, "high byte in lane {lane}");
            w[lane] = 0x1B;
            assert_eq!(ascii_run_no_esc(&w, 0), lane, "ESC in lane {lane}");
        }
    }

    #[test]
    fn eucjp_prober_on_eucjp_text() {
        // Hiragana-heavy EUC-JP.
        let text: Vec<u8> = (1..=40u8)
            .flat_map(|t| Kuten::new(4, t).unwrap().to_eucjp())
            .collect();
        assert!(probe(EucJpProber::new(), &text) > 0.9);
    }

    #[test]
    fn sjis_prober_on_sjis_text() {
        let text: Vec<u8> = (1..=40u8)
            .flat_map(|t| Kuten::new(4, t).unwrap().to_sjis())
            .collect();
        assert!(probe(ShiftJisProber::new(), &text) > 0.9);
    }

    #[test]
    fn eucjp_beats_sjis_on_eucjp_bytes() {
        let text: Vec<u8> = (1..=60u8)
            .flat_map(|t| Kuten::new(4, (t % 80) + 1).unwrap().to_eucjp())
            .collect();
        let euc = probe(EucJpProber::new(), &text);
        let sjis = probe(ShiftJisProber::new(), &text);
        assert!(euc > sjis, "euc {euc} vs sjis {sjis}");
    }

    #[test]
    fn sjis_kills_eucjp_on_sjis_bytes() {
        let text: Vec<u8> = (1..=60u8)
            .flat_map(|t| Kuten::new(4, (t % 80) + 1).unwrap().to_sjis())
            .collect();
        let euc = probe(EucJpProber::new(), &text);
        let sjis = probe(ShiftJisProber::new(), &text);
        assert!(sjis > euc, "euc {euc} vs sjis {sjis}");
    }

    #[test]
    fn iso2022_prober_needs_escape() {
        assert_eq!(probe(Iso2022JpProber::new(), b"plain ascii"), 0.0);
        let mut bytes = vec![0x1B, b'$', b'B', 0x24, 0x22, 0x1B, b'(', b'B'];
        bytes.extend_from_slice(b" tail");
        assert!(probe(Iso2022JpProber::new(), &bytes) > 0.9);
    }

    #[test]
    fn utf8_prober_positive_and_negative() {
        assert!(probe(Utf8Prober::new(), "こんにちは".as_bytes()) > 0.8);
        assert_eq!(probe(Utf8Prober::new(), b"ascii only"), 0.0);
        assert_eq!(probe(Utf8Prober::new(), &[0xA4, 0xB3]), 0.0); // EUC bytes
    }

    #[test]
    fn utf8_language_hint() {
        let mut p = Utf8Prober::new();
        p.feed("สวัสดีชาวโลก".as_bytes());
        assert_eq!(p.language_hint(), Some(Language::Thai));
        let mut p2 = Utf8Prober::new();
        p2.feed("こんにちは世界、日本語のページです".as_bytes());
        assert_eq!(p2.language_hint(), Some(Language::Japanese));
    }

    /// `Prober::feed` takes consecutive pieces of one document: for every
    /// prober, any chunking (splitting characters too) gives the
    /// whole-feed charset, confidence and hint.
    #[test]
    fn every_prober_is_chunking_invariant() {
        let ja = encode::japanese_demo_tokens();
        let th = encode::thai_demo_tokens();
        let in_markup = |text: Vec<u8>| {
            let mut page = b"<p class=\"a\">".to_vec();
            for _ in 0..3 {
                page.extend_from_slice(&text);
                page.extend_from_slice(b"</p> <p>");
            }
            page
        };
        let mut windows_874 = encode::encode_thai_demo();
        windows_874.push(0x91);
        let utf8 = |text: &str, lang| (text.as_bytes().to_vec(), Some(lang));
        type Case = (fn() -> Box<dyn Prober>, Vec<(Vec<u8>, Option<Language>)>);
        let cases: [Case; 8] = [
            (
                || Box::new(Utf8Prober::new()),
                vec![
                    utf8(
                        "<p>こんにちは世界、日本語のページです</p>",
                        Language::Japanese,
                    ),
                    utf8("สวัสดีชาวโลก <b>ภาษาไทย</b>", Language::Thai),
                    utf8("안녕하세요 세계, 한국어 페이지입니다", Language::Korean),
                    utf8("你好世界，这是中文网页 ok", Language::Chinese),
                ],
            ),
            (
                || Box::new(EucJpProber::new()),
                vec![(
                    in_markup(encode::encode_japanese(&ja, Charset::EucJp)),
                    Some(Language::Japanese),
                )],
            ),
            (
                || Box::new(ShiftJisProber::new()),
                vec![(
                    in_markup(encode::encode_japanese(&ja, Charset::ShiftJis)),
                    Some(Language::Japanese),
                )],
            ),
            (
                || Box::new(Iso2022JpProber::new()),
                vec![(
                    in_markup(encode::encode_japanese(&ja, Charset::Iso2022Jp)),
                    Some(Language::Japanese),
                )],
            ),
            (
                || Box::new(EucKrProber::new()),
                vec![(
                    in_markup(dbcs::encode_korean(
                        &dbcs::korean_demo_tokens(),
                        Charset::EucKr,
                    )),
                    Some(Language::Korean),
                )],
            ),
            (
                || Box::new(Gb2312Prober::new()),
                vec![(
                    in_markup(dbcs::encode_chinese(
                        &dbcs::chinese_demo_tokens(),
                        Charset::Gb2312,
                    )),
                    Some(Language::Chinese),
                )],
            ),
            (
                || Box::new(ThaiProber::new()),
                vec![
                    (
                        in_markup(encode::encode_thai(&th, Charset::Tis620)),
                        Some(Language::Thai),
                    ),
                    (in_markup(windows_874), Some(Language::Thai)),
                ],
            ),
            (
                || Box::new(Latin1Prober::new()),
                vec![(
                    in_markup(
                        "d\u{e9}j\u{e0} vu, caf\u{e9} \u{ab}na\u{ef}ve\u{bb}"
                            .chars()
                            .map(|c| c as u8)
                            .collect(),
                    ),
                    None,
                )],
            ),
        ];
        let verdict = |p: &dyn Prober| (p.charset(), p.confidence().to_bits(), p.language_hint());
        for (new_prober, texts) in cases {
            for (text, lang) in texts {
                let mut whole = new_prober();
                whole.feed(&text);
                let expected = verdict(&*whole);
                assert!(
                    whole.confidence() > 0.0,
                    "{:?} rejects its own text",
                    expected.0
                );
                assert_eq!(expected.2, lang, "{:?}", expected.0);
                for size in 1..=8 {
                    let mut split = new_prober();
                    for chunk in text.chunks(size) {
                        split.feed(chunk);
                    }
                    assert_eq!(verdict(&*split), expected, "{size}-byte chunks");
                }
            }
        }
    }

    #[test]
    fn thai_prober_on_thai_text() {
        // สวัสดี in TIS-620: consonant/vowel/tone patterns.
        let text = encode::encode_thai_demo();
        let mut p = ThaiProber::new();
        p.feed(&text);
        assert!(p.confidence() > 0.5, "confidence {}", p.confidence());
        assert_eq!(p.charset(), Charset::Tis620);
    }

    #[test]
    fn thai_prober_family_discrimination() {
        let mut text = encode::encode_thai_demo();
        text.push(0x91); // smart quote → Windows-874 marker
        let mut p = ThaiProber::new();
        p.feed(&text);
        assert_eq!(p.charset(), Charset::Windows874);

        let mut text2 = encode::encode_thai_demo();
        text2.push(0xA0); // NBSP → ISO-8859-11 marker
        let mut p2 = ThaiProber::new();
        p2.feed(&text2);
        assert_eq!(p2.charset(), Charset::Iso885911);
    }

    #[test]
    fn thai_prober_dies_on_unassigned() {
        let mut p = ThaiProber::new();
        p.feed(&[0xA1, 0xDB]); // 0xDB is a hole in every family member
        assert_eq!(p.confidence(), 0.0);
    }

    #[test]
    fn latin1_prober_is_a_quiet_floor() {
        let text = "caf\u{e9} fran\u{e7}ais na\u{ef}ve"
            .chars()
            .map(|c| c as u8)
            .collect::<Vec<_>>();
        let conf = probe(Latin1Prober::new(), &text);
        assert!(conf > 0.0 && conf < 0.5, "conf {conf}");
        // But C1 garbage is rejected.
        assert!(probe(Latin1Prober::new(), &[0x81, 0x82, 0x83, 0x84]) < 0.05);
    }

    /// Text whose every accented letter follows a letter scores exactly
    /// the ceiling the composite detector's Latin-1 skip relies on.
    #[test]
    fn latin1_prober_peaks_at_its_ceiling() {
        let text: Vec<u8> = "d\u{e9}j\u{e0} caf\u{e9} na\u{ef}ve"
            .chars()
            .map(|c| c as u8)
            .collect();
        let conf = probe(Latin1Prober::new(), &text);
        assert_eq!(conf.to_bits(), Latin1Prober::CEILING.to_bits());
        assert_eq!(Latin1Prober::CEILING, 0.25);
    }

    /// The fast-path feed (with ASCII run skipping) must agree with a
    /// byte-at-a-time reference on documents mixing markup and text.
    #[test]
    fn run_skipping_matches_bytewise_feed() {
        let mut page = Vec::new();
        page.extend_from_slice(b"<html><head><title>page title here</title>");
        for _ in 0..4 {
            page.extend_from_slice(&encode::encode_japanese(
                &encode::japanese_demo_tokens(),
                Charset::EucJp,
            ));
            page.extend_from_slice(b"<p class=\"body\">more ascii markup</p>");
        }
        page.extend_from_slice(b"</html>");
        let whole = probe(EucJpProber::new(), &page);
        let mut split = EucJpProber::new();
        // Feeding in ragged pieces exercises every resume state.
        for chunk in page.chunks(7) {
            split.feed(chunk);
        }
        assert_eq!(whole, split.confidence());
        assert!(whole > 0.5, "conf {whole}");

        let l_whole = probe(Latin1Prober::new(), &page);
        let mut l_split = Latin1Prober::new();
        for chunk in page.chunks(11) {
            l_split.feed(chunk);
        }
        assert_eq!(l_whole, l_split.confidence());
    }
}
