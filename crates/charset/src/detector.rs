//! The composite detector — the crate's headline API.
//!
//! Mirrors the architecture of the Mozilla Charset Detector the paper
//! used (Li & Momoi, *"A composite approach to language/encoding
//! detection"*, 19th International Unicode Conference, 2001): run every
//! prober over the document, drop the ones whose coding scheme is
//! violated, and rank the survivors by distribution confidence. The one
//! shortcut, the Latin-1 floor's ceiling skip, leaves every verdict as
//! that procedure gives it (see [`detect_with`]).

use crate::prober::{
    skip_ascii, EucScan, Iso2022JpProber, Latin1Prober, Prober, ShiftJisProber, ThaiProber,
    Utf8Prober,
};
use crate::types::{Charset, Language};

/// Result of charset detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The winning charset; [`Charset::Ascii`] for pure-ASCII documents
    /// and [`Charset::Unknown`] when no prober produced evidence.
    pub charset: Charset,
    /// Confidence of the winner, in [0, 1].
    pub confidence: f64,
    /// Language evidence beyond the Table 1 charset mapping (set by the
    /// UTF-8 prober from Unicode blocks).
    language_hint: Option<Language>,
}

impl Detection {
    /// The detected language: the charset's Table 1 language if it has
    /// one, otherwise the prober's content-level hint (UTF-8 pages).
    ///
    /// ```
    /// use langcrawl_charset::{detect, Language};
    /// let d = detect("สวัสดีเมืองไทย".as_bytes()); // Thai in UTF-8
    /// assert_eq!(d.language(), Some(Language::Thai));
    /// ```
    pub fn language(&self) -> Option<Language> {
        self.charset.language().or(self.language_hint)
    }
}

/// Tuning knobs for [`detect_with`].
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Examine at most this many leading bytes (detectors converge fast;
    /// Mozilla used a similar cap). `usize::MAX` to scan everything.
    pub max_bytes: usize,
    /// Minimum confidence for a non-ASCII verdict; below it the result is
    /// [`Charset::Unknown`].
    pub min_confidence: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            max_bytes: 8 * 1024,
            min_confidence: 0.10,
        }
    }
}

/// Detect the charset of a document with default configuration.
pub fn detect(bytes: &[u8]) -> Detection {
    detect_with(bytes, &DetectorConfig::default())
}

/// Detect the charset of a document.
///
/// The decision procedure:
/// 1. pure 7-bit input with no escape sequences → [`Charset::Ascii`]
///    (found by a word-wise prescan, eight bytes per test);
/// 2. an alive ISO-2022-JP prober with at least one designation escape is
///    conclusive and short-circuits the rest (see below);
/// 3. otherwise the six structured probers (UTF-8, EUC-JP, Shift_JIS,
///    EUC-KR, GB2312, Thai) scan the (truncated) document; the three EUC
///    probers share one scan, since EUC-KR and GB2312 pack their
///    character sets as EUC-JP packs JIS X 0208;
/// 4. the Latin-1 floor scans the document only while the best
///    structured confidence is below [`Latin1Prober::CEILING`]: it never
///    scores above that ceiling and ranks last, so from there on it
///    cannot win, and skipping it leaves every verdict unchanged;
/// 5. highest confidence wins; ties break toward the more *specific*
///    prober (escape/multibyte before single-byte, single-byte before the
///    Latin-1 floor) via the registration order below; a winner below
///    `min_confidence` gives [`Charset::Unknown`].
///
/// Panic-free over any bytes and any configuration: the probers walk
/// their input through slice patterns and checked slicing, and every
/// table they index spans all 256 byte values.
// lint:root(panic-free) — runs on every page a detector-judged crawl
// fetches; a panic here would abort the whole crawl
pub fn detect_with(bytes: &[u8], config: &DetectorConfig) -> Detection {
    let slice = bytes.get(..config.max_bytes).unwrap_or(bytes);

    if skip_ascii::<true>(slice).is_empty() {
        return Detection {
            charset: Charset::Ascii,
            confidence: 1.0,
            language_hint: None,
        };
    }

    // ISO-2022-JP first: if its automaton survives the whole document
    // *and* saw a designation escape, the input is pure 7-bit text with
    // ESC sequences — every other prober scores zero on that (no 8-bit
    // bytes means no multibyte chars, no high bytes, no Latin-1 floor),
    // so its 0.99 verdict is exact, not a heuristic cutoff, and the
    // remaining scans can be skipped outright.
    let mut iso = Iso2022JpProber::new();
    iso.feed(slice);
    let iso_conf = iso.confidence();
    if iso_conf > 0.0 {
        return Detection {
            charset: iso.charset(),
            confidence: iso_conf,
            language_hint: iso.language_hint(),
        };
    }

    let mut utf8 = Utf8Prober::new();
    utf8.feed(slice);
    let mut euc = EucScan::new();
    euc.feed(slice);
    let mut sjis = ShiftJisProber::new();
    sjis.feed(slice);
    let mut th = ThaiProber::new();
    th.feed(slice);

    // Registration order encodes tie-break specificity.
    let euc_candidate = |confidence, cs: Charset| (confidence, cs, cs.language());
    let candidates: [(f64, Charset, Option<Language>); 6] = [
        (utf8.confidence(), utf8.charset(), utf8.language_hint()),
        euc_candidate(euc.ja_confidence(), Charset::EucJp),
        (sjis.confidence(), sjis.charset(), sjis.language_hint()),
        euc_candidate(euc.kr_confidence(), Charset::EucKr),
        euc_candidate(euc.cn_confidence(), Charset::Gb2312),
        (th.confidence(), th.charset(), th.language_hint()),
    ];

    let mut best: Option<(f64, Charset, Option<Language>)> = None;
    for candidate in candidates {
        rank(&mut best, candidate);
    }
    // The Latin-1 floor ranks last and scores at most its ceiling, so a
    // structured confidence at the ceiling already beats it. On text in
    // a CJK or Thai charset nearly every byte is high, which keeps its
    // scan in the per-byte loop; skipping it there is most of its cost.
    if best.is_none_or(|(c, _, _)| c < Latin1Prober::CEILING) {
        let mut latin = Latin1Prober::new();
        latin.feed(slice);
        rank(
            &mut best,
            (latin.confidence(), latin.charset(), latin.language_hint()),
        );
    }

    match best {
        Some((conf, cs, hint)) if conf >= config.min_confidence => Detection {
            charset: cs,
            confidence: conf,
            language_hint: hint,
        },
        _ => Detection {
            charset: Charset::Unknown,
            confidence: 0.0,
            language_hint: None,
        },
    }
}

/// Offer a candidate to the ranking: a positive confidence replaces the
/// best so far only when strictly greater, which keeps the earlier (more
/// specific) prober on a tie.
fn rank(
    best: &mut Option<(f64, Charset, Option<Language>)>,
    candidate: (f64, Charset, Option<Language>),
) {
    if candidate.0 > 0.0 && best.is_none_or(|(c, _, _)| candidate.0 > c) {
        *best = Some(candidate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_japanese, encode_thai, japanese_demo_tokens, thai_demo_tokens};

    #[test]
    fn ascii_detected() {
        let d = detect(b"<html><body>Hello crawler</body></html>");
        assert_eq!(d.charset, Charset::Ascii);
        assert_eq!(d.language(), None);
    }

    #[test]
    fn all_japanese_encodings_detected() {
        let toks = japanese_demo_tokens();
        // Repeat the phrase so distribution statistics stabilise, as a
        // real page body would.
        let toks: Vec<_> = toks.iter().cycle().take(toks.len() * 8).copied().collect();
        for cs in [
            Charset::EucJp,
            Charset::ShiftJis,
            Charset::Iso2022Jp,
            Charset::Utf8,
        ] {
            let bytes = encode_japanese(&toks, cs);
            let d = detect(&bytes);
            assert_eq!(d.charset, cs, "expected {cs}, got {d:?}");
            assert_eq!(d.language(), Some(Language::Japanese), "{cs}");
        }
    }

    #[test]
    fn thai_detected_in_legacy_and_utf8() {
        let toks = thai_demo_tokens();
        let toks: Vec<_> = toks.iter().cycle().take(toks.len() * 8).copied().collect();
        let d = detect(&encode_thai(&toks, Charset::Tis620));
        assert_eq!(d.charset, Charset::Tis620);
        assert_eq!(d.language(), Some(Language::Thai));

        let d8 = detect(&encode_thai(&toks, Charset::Utf8));
        assert_eq!(d8.charset, Charset::Utf8);
        assert_eq!(d8.language(), Some(Language::Thai));
    }

    #[test]
    fn html_wrapped_content_still_detected() {
        // Realistic page: ASCII markup dominating byte count, body text in
        // EUC-JP.
        let body = encode_japanese(&japanese_demo_tokens(), Charset::EucJp);
        let mut page = Vec::new();
        page.extend_from_slice(b"<html><head><title>");
        page.extend_from_slice(&body);
        page.extend_from_slice(b"</title></head><body><p>");
        page.extend_from_slice(&body);
        page.extend_from_slice(b"</p></body></html>");
        let d = detect(&page);
        assert_eq!(d.charset, Charset::EucJp);
    }

    #[test]
    fn latin1_text_falls_to_latin1() {
        let text: Vec<u8> = "r\u{e9}sum\u{e9} fran\u{e7}ais d\u{e9}j\u{e0} caf\u{e9}"
            .chars()
            .map(|c| c as u8)
            .collect();
        let d = detect(&text);
        assert_eq!(d.charset, Charset::Latin1);
        assert_eq!(d.language(), None);
    }

    #[test]
    fn garbage_is_unknown() {
        // Bytes that violate every structured encoding and carry C1 noise.
        let garbage = [0x81u8, 0xFF, 0x00, 0xFE, 0x81, 0xFF, 0xFE, 0x90];
        let d = detect(&garbage);
        assert_eq!(d.charset, Charset::Unknown);
        assert_eq!(d.language(), None);
    }

    #[test]
    fn empty_input_is_ascii() {
        let d = detect(b"");
        assert_eq!(d.charset, Charset::Ascii);
    }

    #[test]
    fn max_bytes_cap_respected() {
        // Japanese after 16 bytes of ASCII, but cap at 16: sees only ASCII.
        let mut page = vec![b'a'; 16];
        page.extend(encode_japanese(&japanese_demo_tokens(), Charset::EucJp));
        let cfg = DetectorConfig {
            max_bytes: 16,
            ..DetectorConfig::default()
        };
        assert_eq!(detect_with(&page, &cfg).charset, Charset::Ascii);
        assert_eq!(detect(&page).charset, Charset::EucJp);
    }

    #[test]
    fn min_confidence_gate() {
        let text: Vec<u8> = "caf\u{e9}".chars().map(|c| c as u8).collect();
        let strict = DetectorConfig {
            min_confidence: 0.9,
            ..DetectorConfig::default()
        };
        assert_eq!(detect_with(&text, &strict).charset, Charset::Unknown);
    }

    #[test]
    fn korean_and_chinese_detected() {
        use crate::dbcs::{chinese_demo_tokens, encode_chinese, encode_korean, korean_demo_tokens};
        let kr = korean_demo_tokens();
        let kr: Vec<_> = kr.iter().cycle().take(kr.len() * 8).copied().collect();
        let d = detect(&encode_korean(&kr, Charset::EucKr));
        assert_eq!(d.charset, Charset::EucKr, "{d:?}");
        assert_eq!(d.language(), Some(Language::Korean));
        let d8 = detect(&encode_korean(&kr, Charset::Utf8));
        assert_eq!(d8.charset, Charset::Utf8);
        assert_eq!(d8.language(), Some(Language::Korean));

        let cn = chinese_demo_tokens();
        let cn: Vec<_> = cn.iter().cycle().take(cn.len() * 8).copied().collect();
        let d = detect(&encode_chinese(&cn, Charset::Gb2312));
        assert_eq!(d.charset, Charset::Gb2312, "{d:?}");
        assert_eq!(d.language(), Some(Language::Chinese));
        let d8 = detect(&encode_chinese(&cn, Charset::Utf8));
        assert_eq!(d8.charset, Charset::Utf8);
        assert_eq!(d8.language(), Some(Language::Chinese));
    }

    /// The EUC packings are byte-compatible across JP/KR/CN; only the
    /// row distributions separate them. Each language's text must win
    /// its own prober.
    #[test]
    fn euc_family_cross_discrimination() {
        use crate::dbcs::{chinese_demo_tokens, encode_chinese, encode_korean, korean_demo_tokens};
        let ja = japanese_demo_tokens();
        let ja: Vec<_> = ja.iter().cycle().take(ja.len() * 8).copied().collect();
        let d = detect(&encode_japanese(&ja, Charset::EucJp));
        assert_eq!(d.language(), Some(Language::Japanese), "{d:?}");

        let kr = korean_demo_tokens();
        let kr: Vec<_> = kr.iter().cycle().take(kr.len() * 8).copied().collect();
        let d = detect(&encode_korean(&kr, Charset::EucKr));
        assert_eq!(d.language(), Some(Language::Korean), "{d:?}");

        let cn = chinese_demo_tokens();
        let cn: Vec<_> = cn.iter().cycle().take(cn.len() * 8).copied().collect();
        let d = detect(&encode_chinese(&cn, Charset::Gb2312));
        assert_eq!(d.language(), Some(Language::Chinese), "{d:?}");
    }

    #[test]
    fn iso2022jp_wins_by_escape_even_with_little_text() {
        let bytes = encode_japanese(&japanese_demo_tokens()[..2], Charset::Iso2022Jp);
        let d = detect(&bytes);
        assert_eq!(d.charset, Charset::Iso2022Jp);
        assert!(d.confidence > 0.9);
    }
}
