//! Per-encoding probers: validity + distribution, producing a confidence.
//!
//! The composite detector feeds the document to the probers and takes the
//! highest-confidence survivor — the architecture of the Mozilla composite
//! detector the paper used, rebuilt small.
//!
//! ## Whole-character kernels
//!
//! Each multibyte prober (the one EUC scan behind EUC-JP, EUC-KR and
//! GB2312, then Shift_JIS, UTF-8 and ISO-2022-JP) walks its document one
//! *character* at a time, in one loop. Per character it skips an ASCII run word-wise, or else
//! matches the lead byte and its trail bytes against the encoding's
//! ranges, decodes the cell straight from those bytes and adds it to the
//! distribution ([`crate::dist`]), in document order. The loops accept
//! exactly the byte language of the matching coding-scheme verifier, a
//! byte-at-a-time state machine that lives in the crate's test code as
//! the reference the tests hold them to: a prober dies at the first
//! character holding a byte its verifier rejects, and it sits at a
//! character boundary exactly where the verifier does.
//!
//! A character cut by the end of a `feed` piece is carried (at most three
//! bytes) and completed from the head of the next piece through the same
//! loop, so feeding a document whole or in pieces gives the same verdict.
//! A document that ends inside a character scores 0.
//!
//! Real pages are mostly ASCII markup around the encoded text, which makes
//! 7-bit runs the dominant byte class even on non-English documents; a
//! run carries no distribution signal, so the probers pass it eight bytes
//! at a time.

use crate::dist::{ChineseDistribution, JapaneseDistribution, KoreanDistribution, UnicodeBlocks};
use crate::kuten::Kuten;
use crate::thai;
use crate::types::{Charset, Language};

const HI_BITS: u64 = 0x8080_8080_8080_8080;
const LO_BITS: u64 = 0x0101_0101_0101_0101;

/// `bytes` past the run of 7-bit bytes at its head, found eight bytes at
/// a time (high-bit test per `u64` word). With `STOP_AT_ESC` the run also
/// ends at ESC (0x1B), the one 7-bit byte that is *not* inert for
/// ISO-2022-JP detection; that scan uses Mycroft's exact zero-byte trick
/// on `w ^ 0x1B…1B`.
#[inline]
pub(crate) fn skip_ascii<const STOP_AT_ESC: bool>(bytes: &[u8]) -> &[u8] {
    const ESC_PAT: u64 = 0x1B1B_1B1B_1B1B_1B1B;
    let mut rest = bytes;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        let w = u64::from_le_bytes(*word);
        let mut hit = w & HI_BITS;
        if STOP_AT_ESC {
            let x = w ^ ESC_PAT;
            hit |= x.wrapping_sub(LO_BITS) & !x & HI_BITS;
        }
        if hit != 0 {
            return rest
                .get((hit.trailing_zeros() / 8) as usize..)
                .unwrap_or_default();
        }
        rest = tail;
    }
    while let [b, ref tail @ ..] = *rest {
        if b >= 0x80 || (STOP_AT_ESC && b == 0x1B) {
            break;
        }
        rest = tail;
    }
    rest
}

/// `bytes` split into the run of 7-bit bytes at its head and the rest.
#[inline]
fn split_ascii(bytes: &[u8]) -> (&[u8], &[u8]) {
    let run = bytes.len() - skip_ascii::<false>(bytes).len();
    bytes.split_at_checked(run).unwrap_or((bytes, &[]))
}

/// Index a 256-entry table by a byte.
#[inline]
pub(crate) fn by_byte<T: Copy>(table: &[T; 256], b: u8) -> T {
    // lint:allow(no-panic-transitive): a byte is below 256, the table's length
    table[usize::from(b)]
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
    /// [`Prober::confidence`] when a byte cap, not the document's end,
    /// stopped the feed: a character the cap cuts is no evidence against
    /// the encoding, so a multibyte prober scores at its last character
    /// boundary. Probers that ignore boundaries keep the default.
    fn capped_confidence(&self) -> f64 {
        self.confidence()
    }
    /// Language evidence, when the prober can supply one beyond the
    /// charset's Table 1 mapping (used by the UTF-8 prober).
    fn language_hint(&self) -> Option<Language> {
        self.charset().language()
    }
}

/// Where a multibyte prober's walk stands between `feed` pieces: dead
/// (an illegal sequence was seen), or alive, holding the head of a
/// character the end of the last piece cut.
#[derive(Debug, Default)]
struct Walk {
    cut: [u8; 4],
    cut_len: u8,
    dead: bool,
}

impl Walk {
    /// True if the document may legally end here: alive and not inside a
    /// character.
    #[cfg(test)]
    fn at_boundary(&self) -> bool {
        self.scores(false)
    }

    /// True if the walk's evidence counts: alive, and at a character
    /// boundary unless a byte cap cut the last piece (`capped`).
    fn scores(&self, capped: bool) -> bool {
        !self.dead && (capped || self.cut_len == 0)
    }

    /// Run a prober's character loop `chars` over the next piece.
    ///
    /// `chars` walks the whole characters at the head of its input and
    /// returns how many bytes they span, which leaves unconsumed only a
    /// proper prefix of one character that the input's end cuts; it
    /// returns `None` at a character the encoding rejects. A held cut is
    /// completed first: `chars` walks it joined to the piece's first
    /// bytes, and the piece resumes after what that consumed.
    #[inline(always)]
    fn feed(&mut self, piece: &[u8], mut chars: impl FnMut(&[u8]) -> Option<usize>) {
        if self.dead {
            return;
        }
        let mut rest = piece;
        if self.cut_len > 0 {
            let held = usize::from(self.cut_len);
            let mut joined = self.cut;
            for (slot, &b) in joined.iter_mut().skip(held).zip(piece) {
                *slot = b;
            }
            let joined = joined
                .get(..(held + piece.len()).min(4))
                .unwrap_or_default();
            let Some(used) = chars(joined) else {
                self.dead = true;
                return;
            };
            if used == 0 {
                // The piece ends before the character does.
                self.keep(joined);
                return;
            }
            rest = piece.get(used.saturating_sub(held)..).unwrap_or_default();
        }
        match chars(rest) {
            Some(used) => self.keep(rest.get(used..).unwrap_or_default()),
            None => self.dead = true,
        }
    }

    /// Hold `cut`, the proper prefix of a character a piece ended in.
    fn keep(&mut self, cut: &[u8]) {
        self.cut_len = 0;
        for (slot, &b) in self.cut.iter_mut().zip(cut) {
            *slot = b;
            self.cut_len += 1;
        }
    }
}

/// The cell an EUC lead/trail pair (both 0xA1..=0xFE) encodes.
#[inline]
fn euc_cell(lead: u8, trail: u8) -> Kuten {
    Kuten {
        ku: lead - 0xA0,
        ten: trail - 0xA0,
    }
}

// --------------------------------------------------------------- EUC family

/// The one scan behind [`EucJpProber`], [`EucKrProber`] and
/// [`Gb2312Prober`]. EUC-KR and GB2312 (EUC-CN) pack KS X 1001 and GB 2312
/// exactly as EUC-JP packs JIS X 0208, and EUC-JP only adds its SS2/SS3
/// planes, so the composite detector walks the bytes once, decodes each
/// cell once and feeds all three distributions from it. The EUC-KR/GB2312
/// side dies at the first SS2 or SS3 byte, while EUC-JP walks on.
#[derive(Debug, Default)]
pub(crate) struct EucScan {
    ja: JapaneseDistribution,
    kr: KoreanDistribution,
    cn: ChineseDistribution,
    /// An SS2 or SS3 byte was seen, which EUC-KR and GB2312 reject.
    shifted: bool,
    walk: Walk,
}

/// The EUC character loop (see [`Walk::feed`]): ASCII, a 94×94 cell as
/// two bytes in 0xA1..=0xFE, and EUC-JP's half-width kana as SS2 (0x8E) +
/// 0xA1..=0xDF and JIS X 0212 as SS3 (0x8F) + two bytes in 0xA1..=0xFE,
/// which counts as the JIS X 0208 cell of its last two bytes. Cells reach
/// the Korean and Chinese distributions until the first SS2/SS3 byte.
fn euc_chars(
    ja: &mut JapaneseDistribution,
    kr: &mut KoreanDistribution,
    cn: &mut ChineseDistribution,
    shifted: &mut bool,
    bytes: &[u8],
) -> Option<usize> {
    let mut rest = bytes;
    loop {
        rest = match *rest {
            [b, ..] if b < 0x80 => skip_ascii::<false>(rest),
            [lead @ 0xA1..=0xFE, trail @ 0xA1..=0xFE, ref tail @ ..] => {
                let cell = euc_cell(lead, trail);
                ja.add_kuten(cell);
                if !*shifted {
                    kr.add_cell(cell);
                    cn.add_cell(cell);
                }
                tail
            }
            [0x8F, lead @ 0xA1..=0xFE, trail @ 0xA1..=0xFE, ref tail @ ..] => {
                *shifted = true;
                ja.add_kuten(euc_cell(lead, trail));
                tail
            }
            [0x8E, 0xA1..=0xDF, ref tail @ ..] => {
                *shifted = true;
                ja.add_halfwidth_kana();
                tail
            }
            [] | [0xA1..=0xFE] => break,
            [0x8E] | [0x8F] | [0x8F, 0xA1..=0xFE] => {
                *shifted = true;
                break;
            }
            _ => return None,
        };
    }
    Some(bytes.len() - rest.len())
}

impl EucScan {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        let (ja, kr, cn) = (&mut self.ja, &mut self.kr, &mut self.cn);
        let shifted = &mut self.shifted;
        self.walk.feed(bytes, |b| euc_chars(ja, kr, cn, shifted, b));
    }

    /// EUC-JP's confidence; `capped` as in [`Walk::scores`].
    pub(crate) fn ja_confidence(&self, capped: bool) -> f64 {
        if self.walk.scores(capped) {
            self.ja.score()
        } else {
            0.0
        }
    }

    /// EUC-KR's confidence; `capped` as in [`Walk::scores`].
    pub(crate) fn kr_confidence(&self, capped: bool) -> f64 {
        if self.walk.scores(capped) && !self.shifted {
            self.kr.score()
        } else {
            0.0
        }
    }

    /// GB2312's confidence; `capped` as in [`Walk::scores`].
    pub(crate) fn cn_confidence(&self, capped: bool) -> f64 {
        if self.walk.scores(capped) && !self.shifted {
            self.cn.score()
        } else {
            0.0
        }
    }
}

/// EUC-JP prober: validity + kuten-row distribution.
#[derive(Debug, Default)]
pub struct EucJpProber {
    scan: EucScan,
}

impl EucJpProber {
    /// Fresh prober.
    // lint:allow(test-only-pub): tests/detector_parity.rs runs every prober alone
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prober for EucJpProber {
    fn feed(&mut self, bytes: &[u8]) {
        self.scan.feed(bytes);
    }

    fn charset(&self) -> Charset {
        Charset::EucJp
    }

    fn confidence(&self) -> f64 {
        self.scan.ja_confidence(false)
    }

    fn capped_confidence(&self) -> f64 {
        self.scan.ja_confidence(true)
    }
}

/// EUC-KR prober: the 94×94 EUC packing + the Korean (hangul-row)
/// distribution.
#[derive(Debug, Default)]
pub struct EucKrProber {
    scan: EucScan,
}

impl EucKrProber {
    /// Fresh prober.
    // lint:allow(test-only-pub): tests/detector_parity.rs runs every prober alone
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
        self.scan.kr_confidence(false)
    }

    fn capped_confidence(&self) -> f64 {
        self.scan.kr_confidence(true)
    }
}

/// GB2312 prober: the 94×94 EUC packing + the Chinese (hanzi
/// level-1/level-2) distribution. Korean hangul-only byte streams land in
/// the Chinese level-1 rows too; the level-2 tail (present in real
/// Chinese text, absent in hangul) plus the Korean prober's higher
/// in-model score break the tie.
#[derive(Debug, Default)]
pub struct Gb2312Prober {
    scan: EucScan,
}

impl Gb2312Prober {
    /// Fresh prober.
    // lint:allow(test-only-pub): tests/detector_parity.rs runs every prober alone
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
        self.scan.cn_confidence(false)
    }

    fn capped_confidence(&self) -> f64 {
        self.scan.cn_confidence(true)
    }
}

// ---------------------------------------------------------------- Shift_JIS

/// Shift_JIS prober: validity + kuten-row distribution (with
/// half-width-kana penalty — the classic EUC-vs-SJIS confusion).
#[derive(Debug, Default)]
pub struct ShiftJisProber {
    dist: JapaneseDistribution,
    walk: Walk,
}

impl ShiftJisProber {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }

    /// The confidence; `capped` as in [`Walk::scores`].
    pub(crate) fn score(&self, capped: bool) -> f64 {
        if self.walk.scores(capped) {
            self.dist.score()
        } else {
            0.0
        }
    }
}

/// Shift_JIS trail byte → its cell (*ten*) in the low seven bits, with the
/// top bit set when the cell lies in the second (even) JIS row of its
/// lead byte's pair; 0 for a byte that cannot trail (outside
/// 0x40..=0x7E, 0x80..=0xFC). The folded packing of [`Kuten::to_sjis`],
/// inverted per byte.
static SJIS_TRAIL: [u8; 256] = sjis_trail_table();

const fn sjis_trail_table() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = match b {
            0x40..=0x7E => (b - 0x3F) as u8,
            0x80..=0x9E => (b - 0x40) as u8,
            0x9F..=0xFC => 0x80 | (b - 0x9E) as u8,
            _ => 0,
        };
        b += 1;
    }
    t
}

/// The cell a Shift_JIS lead (0x81..=0x9F or 0xE0..=0xEF) and trail
/// encode; `None` when the trail cannot follow a lead.
#[inline]
fn sjis_cell(lead: u8, trail: u8) -> Option<Kuten> {
    let cell = by_byte(&SJIS_TRAIL, trail);
    if cell == 0 {
        return None;
    }
    // Leads 0x81..=0x9F name row pairs 0..=30 and 0xE0..=0xEF pairs
    // 31..=46: the low six bits of `lead - 0x81`.
    let pair = (lead - 0x81) & 0x3F;
    Some(Kuten {
        ku: 2 * pair + 1 + (cell >> 7),
        ten: cell & 0x7F,
    })
}

/// Shift_JIS's character loop (see [`Walk::feed`]): ASCII, half-width
/// kana as single bytes 0xA1..=0xDF, and JIS X 0208 as a lead in
/// 0x81..=0x9F / 0xE0..=0xEF, which names a pair of rows, plus a trail
/// that picks the row and the cell ([`SJIS_TRAIL`]).
fn sjis_chars(dist: &mut JapaneseDistribution, bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    loop {
        rest = match *rest {
            [b, ..] if b < 0x80 => skip_ascii::<false>(rest),
            [lead @ (0x81..=0x9F | 0xE0..=0xEF), trail, ref tail @ ..] => {
                dist.add_kuten(sjis_cell(lead, trail)?);
                tail
            }
            [0xA1..=0xDF, ref tail @ ..] => {
                dist.add_halfwidth_kana();
                tail
            }
            [] | [0x81..=0x9F | 0xE0..=0xEF] => break,
            _ => return None,
        };
    }
    Some(bytes.len() - rest.len())
}

impl Prober for ShiftJisProber {
    fn feed(&mut self, bytes: &[u8]) {
        let dist = &mut self.dist;
        self.walk.feed(bytes, |b| sjis_chars(dist, b));
    }

    fn charset(&self) -> Charset {
        Charset::ShiftJis
    }

    fn confidence(&self) -> f64 {
        self.score(false)
    }

    fn capped_confidence(&self) -> f64 {
        self.score(true)
    }
}

// -------------------------------------------------------------- ISO-2022-JP

/// ISO-2022-JP prober: pure coding-scheme detection. One recognised
/// designation escape is near-conclusive — no other web encoding uses
/// `ESC $ B`.
#[derive(Debug, Default)]
pub struct Iso2022JpProber {
    /// Designated to JIS X 0208 (two bytes per character), not ASCII.
    jis: bool,
    /// Complete designation escapes seen.
    escapes: u32,
    walk: Walk,
}

impl Iso2022JpProber {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }
}

/// ISO-2022-JP's character loop (see [`Walk::feed`]), RFC 1468's 7-bit
/// subset: `ESC $ @` / `ESC $ B` designate JIS X 0208, whose characters
/// are byte pairs in 0x21..=0x7E with whitespace allowed between them;
/// `ESC ( B` / `ESC ( J` designate one-byte text, in which every 7-bit
/// byte but ESC is a character. Every 8-bit byte is illegal.
fn iso2022jp_chars(jis: &mut bool, escapes: &mut u32, bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    loop {
        rest = match *rest {
            [0x1B, b'$', b'@' | b'B', ref tail @ ..] => {
                *jis = true;
                *escapes += 1;
                tail
            }
            [0x1B, b'(', b'B' | b'J', ref tail @ ..] => {
                *jis = false;
                *escapes += 1;
                tail
            }
            [0x21..=0x7E, 0x21..=0x7E, ref tail @ ..] if *jis => tail,
            [b' ' | b'\n' | b'\r' | b'\t', ref tail @ ..] if *jis => tail,
            [b, ..] if !*jis && b < 0x80 && b != 0x1B => skip_ascii::<true>(rest),
            [] | [0x1B] | [0x1B, b'$' | b'('] => break,
            [0x21..=0x7E] if *jis => break,
            _ => return None,
        };
    }
    Some(bytes.len() - rest.len())
}

impl Prober for Iso2022JpProber {
    fn feed(&mut self, bytes: &[u8]) {
        let (jis, escapes) = (&mut self.jis, &mut self.escapes);
        self.walk.feed(bytes, |b| iso2022jp_chars(jis, escapes, b));
    }

    fn charset(&self) -> Charset {
        Charset::Iso2022Jp
    }

    fn confidence(&self) -> f64 {
        if self.walk.dead || self.escapes == 0 {
            0.0
        } else {
            0.99
        }
    }
}

// -------------------------------------------------------------------- UTF-8

/// UTF-8 prober: validity + Unicode block census.
#[derive(Debug, Default)]
pub struct Utf8Prober {
    blocks: UnicodeBlocks,
    walk: Walk,
}

impl Utf8Prober {
    /// Fresh prober.
    pub fn new() -> Self {
        Self::default()
    }

    /// The confidence; `capped` as in [`Walk::scores`].
    pub(crate) fn score(&self, capped: bool) -> f64 {
        if !self.walk.scores(capped) {
            return 0.0;
        }
        // The census holds exactly the multibyte characters.
        match self.blocks.non_ascii() {
            // Plain ASCII: valid UTF-8 but no positive evidence.
            0 => 0.0,
            // Multibyte UTF-8 that never tripped the verifier is UTF-8
            // with very high probability; random legacy bytes break the
            // continuation pattern almost immediately.
            multibyte => (0.85 + 0.005 * multibyte as f64).min(0.99),
        }
    }
}

/// UTF-8's character loop (see [`Walk::feed`]), RFC 3629: a lead byte
/// fixes the length and the range of the first continuation byte, which
/// rejects overlong forms (after 0xE0, 0xF0), surrogates (after 0xED) and
/// scalars above U+10FFFF (after 0xF4). Each multibyte character's scalar
/// goes to the block census; ASCII, which the census ignores, is skipped.
fn utf8_chars(blocks: &mut UnicodeBlocks, bytes: &[u8]) -> Option<usize> {
    const fn bits(b: u8, mask: u8) -> u32 {
        (b & mask) as u32
    }
    let mut rest = bytes;
    loop {
        let (cp, tail) = match *rest {
            [b, ..] if b < 0x80 => {
                rest = skip_ascii::<false>(rest);
                continue;
            }
            [a @ 0xC2..=0xDF, b @ 0x80..=0xBF, ref tail @ ..] => {
                (bits(a, 0x1F) << 6 | bits(b, 0x3F), tail)
            }
            [a @ 0xE0, b @ 0xA0..=0xBF, c @ 0x80..=0xBF, ref tail @ ..]
            | [a @ (0xE1..=0xEC | 0xEE..=0xEF), b @ 0x80..=0xBF, c @ 0x80..=0xBF, ref tail @ ..]
            | [a @ 0xED, b @ 0x80..=0x9F, c @ 0x80..=0xBF, ref tail @ ..] => (
                bits(a, 0x0F) << 12 | bits(b, 0x3F) << 6 | bits(c, 0x3F),
                tail,
            ),
            [a @ 0xF0, b @ 0x90..=0xBF, c @ 0x80..=0xBF, d @ 0x80..=0xBF, ref tail @ ..]
            | [a @ 0xF1..=0xF3, b @ 0x80..=0xBF, c @ 0x80..=0xBF, d @ 0x80..=0xBF, ref tail @ ..]
            | [a @ 0xF4, b @ 0x80..=0x8F, c @ 0x80..=0xBF, d @ 0x80..=0xBF, ref tail @ ..] => (
                bits(a, 0x07) << 18 | bits(b, 0x3F) << 12 | bits(c, 0x3F) << 6 | bits(d, 0x3F),
                tail,
            ),
            [] | [0xC2..=0xF4] => break,
            [a, b, ref more @ ..] if utf8_cut(a, b, more) => break,
            _ => return None,
        };
        blocks.add(cp);
        rest = tail;
    }
    Some(bytes.len() - rest.len())
}

/// True if `a b more…` is a proper prefix of a UTF-8 character: lead `a`
/// allows continuation `b`, and `more` holds continuations the character
/// has room for after it.
fn utf8_cut(a: u8, b: u8, more: &[u8]) -> bool {
    let (first, len) = match a {
        0xE0 => (0xA0..=0xBF, 3),
        0xE1..=0xEC | 0xEE..=0xEF => (0x80..=0xBF, 3),
        0xED => (0x80..=0x9F, 3),
        0xF0 => (0x90..=0xBF, 4),
        0xF1..=0xF3 => (0x80..=0xBF, 4),
        0xF4 => (0x80..=0x8F, 4),
        _ => return false,
    };
    first.contains(&b) && 2 + more.len() < len && more.iter().all(|c| (0x80..=0xBF).contains(c))
}

impl Prober for Utf8Prober {
    fn feed(&mut self, bytes: &[u8]) {
        let blocks = &mut self.blocks;
        self.walk.feed(bytes, |b| utf8_chars(blocks, b));
    }

    fn charset(&self) -> Charset {
        Charset::Utf8
    }

    fn confidence(&self) -> f64 {
        self.score(false)
    }

    fn capped_confidence(&self) -> f64 {
        self.score(true)
    }

    fn language_hint(&self) -> Option<Language> {
        self.blocks.dominant()
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
        let mut rest = bytes;
        loop {
            // A run of ASCII after an ASCII byte contributes no pairs
            // and no byte counts; only its last byte matters, as the
            // left neighbour of whatever follows.
            if self.prev < 0x80 {
                let (run, tail) = split_ascii(rest);
                if let Some(&last) = run.last() {
                    self.prev = last;
                }
                rest = tail;
            }
            let Some((&b, tail)) = rest.split_first() else {
                return;
            };
            rest = tail;
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
        let mut rest = bytes;
        while let [b, ref tail @ ..] = *rest {
            if b < 0x80 {
                // ASCII runs only advance the totals; the C1 /
                // accented-letter statistics all need an 8-bit byte.
                let (run, after) = split_ascii(rest);
                self.total += run.len() as u32;
                self.prev_alpha = run.last().is_some_and(u8::is_ascii_alphabetic);
                rest = after;
                continue;
            }
            rest = tail;
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
    use crate::tests::sm::{
        Euc94Verifier, EucJpVerifier, Iso2022JpVerifier, ShiftJisVerifier, SmState, Utf8Verifier,
        Verifier,
    };
    use crate::tests::{chinese_demo_tokens, encode_thai_demo, korean_demo_tokens};
    use crate::{dbcs, encode};

    fn probe<P: Prober>(mut p: P, bytes: &[u8]) -> f64 {
        p.feed(bytes);
        p.confidence()
    }

    #[test]
    fn ascii_run_helpers_find_stops() {
        let run = |bytes: &[u8]| bytes.len() - skip_ascii::<false>(bytes).len();
        let run_no_esc = |bytes: &[u8]| bytes.len() - skip_ascii::<true>(bytes).len();
        let mut v = vec![b'a'; 37];
        assert_eq!(run(&v), 37);
        assert_eq!(run_no_esc(&v), 37);
        v.push(0xA4);
        v.extend_from_slice(&[b'x'; 9]);
        assert_eq!(run(&v), 37);
        assert_eq!(run(&v[38..]), 9);
        assert_eq!(split_ascii(&v), (&v[..37], &v[37..]));
        let esc = [b'a', b'b', 0x1B, b'c'];
        assert_eq!(run(&esc), 4, "plain run ignores ESC");
        assert_eq!(run_no_esc(&esc), 2, "no-ESC run stops at it");
        // Stops inside the 8-byte fast path, at every lane.
        for lane in 0..16 {
            let mut w = vec![b' '; 24];
            w[lane] = 0x9B;
            assert_eq!(run(&w), lane, "high byte in lane {lane}");
            w[lane] = 0x1B;
            assert_eq!(run_no_esc(&w), lane, "ESC in lane {lane}");
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

    /// The piece sizes the chunking tests feed documents in.
    const CHUNK_SIZES: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 13];

    /// `Prober::feed` takes consecutive pieces of one document: for every
    /// prober, any chunking (splitting characters and ISO-2022-JP escapes
    /// too) gives the whole-feed charset, confidence and hint.
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
        let mut windows_874 = encode_thai_demo();
        windows_874.push(0x91);
        let utf8 = |text: &str, lang| (text.as_bytes().to_vec(), Some(lang));
        let with = |mut text: Vec<u8>, extra: &[u8]| {
            text.extend_from_slice(extra);
            text
        };
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
                    // Two-, three- and four-byte characters.
                    utf8("café ひらがな 🦀 の テスト 𝄞 です", Language::Japanese),
                ],
            ),
            (
                || Box::new(EucJpProber::new()),
                vec![(
                    // Half-width kana through SS2, JIS X 0212 through SS3.
                    in_markup(with(
                        encode::encode_japanese(&ja, Charset::EucJp),
                        &[0x8E, 0xB1, 0x8E, 0xDF, 0x8F, 0xB0, 0xA1, 0x8F, 0xFE, 0xFE],
                    )),
                    Some(Language::Japanese),
                )],
            ),
            (
                || Box::new(ShiftJisProber::new()),
                vec![(
                    // Half-width kana, and leads in 0xE0..=0xEF.
                    in_markup(with(
                        encode::encode_japanese(&ja, Charset::ShiftJis),
                        &[0xB1, 0xDF, 0xA1, 0xE0, 0x40, 0xEA, 0x9F, 0xEF, 0xFC],
                    )),
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
                    in_markup(dbcs::encode_korean(&korean_demo_tokens(), Charset::EucKr)),
                    Some(Language::Korean),
                )],
            ),
            (
                || Box::new(Gb2312Prober::new()),
                vec![(
                    in_markup(dbcs::encode_chinese(
                        &chinese_demo_tokens(),
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
                for size in CHUNK_SIZES {
                    let mut split = new_prober();
                    for chunk in text.chunks(size) {
                        split.feed(chunk);
                    }
                    assert_eq!(verdict(&*split), expected, "{size}-byte chunks");
                }
            }
        }
    }

    /// A prober's walk after some bytes: (dead, at a character boundary).
    type WalkState = (bool, bool);

    fn walk_state(walk: &Walk) -> WalkState {
        (walk.dead, walk.at_boundary())
    }

    /// Feeds every document to a fresh `P`, whole and in pieces of each
    /// of [`CHUNK_SIZES`], and holds it to a fresh `V` fed the same bytes:
    /// after every piece the prober must be dead exactly when the verifier
    /// has rejected a byte, and at a boundary exactly when the verifier
    /// is. Each chunking must also give the whole-feed verdict.
    fn assert_walks_as_verifier<P, V>(docs: &[Vec<u8>], state: fn(&P) -> WalkState)
    where
        P: Prober + Default,
        V: Verifier + Default,
    {
        let verdict = |p: &P| (p.charset(), p.confidence().to_bits(), p.language_hint());
        for doc in docs {
            let mut whole = P::default();
            whole.feed(doc);
            for size in CHUNK_SIZES.into_iter().chain([doc.len().max(1)]) {
                let (mut p, mut v) = (P::default(), V::default());
                let (mut rejected, mut fed) = (false, 0);
                for chunk in doc.chunks(size) {
                    p.feed(chunk);
                    for &b in chunk {
                        rejected |= v.feed(b) == SmState::Error;
                    }
                    fed += chunk.len();
                    assert_eq!(
                        state(&p),
                        (rejected, v.at_boundary()),
                        "{:?} after {fed} bytes of {doc:02X?} in {size}-byte pieces",
                        p.charset()
                    );
                }
                assert_eq!(
                    verdict(&p),
                    verdict(&whole),
                    "{doc:02X?}, {size}-byte pieces"
                );
            }
        }
    }

    /// `base` cut at every length, then `base` with each byte in turn
    /// replaced by every byte value: documents that end inside a
    /// character, and documents that turn invalid at every position, so
    /// for every piece size also on the byte right after a piece boundary.
    fn cut_and_mutated(base: &[u8]) -> Vec<Vec<u8>> {
        let mut docs: Vec<Vec<u8>> = (0..=base.len()).map(|n| base[..n].to_vec()).collect();
        for i in 0..base.len() {
            for b in 0..=u8::MAX {
                let mut doc = base.to_vec();
                doc[i] = b;
                docs.push(doc);
            }
        }
        docs
    }

    #[test]
    fn euc_walks_match_their_verifiers() {
        // The 94×94 packing alone, then EUC-JP text, on which EUC-KR and
        // GB2312 die at the first SS2/SS3 byte.
        let euc94 = [
            b'a', 0xB0, 0xA1, b' ', 0xC8, 0xFE, 0xA1, 0xA1, b'z', 0xFE, 0xA1,
        ];
        // EUC-JP through every decoder path: ASCII, JIS X 0208, SS2
        // half-width kana, SS3 JIS X 0212.
        let eucjp = [
            b'a', b' ', 0xA4, 0xA2, 0x8E, 0xB1, 0x8F, 0xB0, 0xA1, 0xB0, 0xA1, b'<', 0x8E, 0xDF,
            0xFE, 0xFE, 0xA5, 0xA2, b'>',
        ];
        let mut docs = cut_and_mutated(&euc94);
        docs.extend(cut_and_mutated(&eucjp));
        fn cjk_state(scan: &EucScan) -> WalkState {
            (
                scan.walk.dead || scan.shifted,
                scan.walk.at_boundary() && !scan.shifted,
            )
        }
        assert_walks_as_verifier::<EucJpProber, EucJpVerifier>(&docs, |p| walk_state(&p.scan.walk));
        assert_walks_as_verifier::<EucKrProber, Euc94Verifier>(&docs, |p| cjk_state(&p.scan));
        assert_walks_as_verifier::<Gb2312Prober, Euc94Verifier>(&docs, |p| cjk_state(&p.scan));
    }

    #[test]
    fn sjis_walk_matches_its_verifier() {
        // ASCII, kana, half-width kana, leads at both ends of both lead
        // ranges, trails at both ends of both trail ranges.
        let doc = [
            b'a', 0x82, 0xA0, 0xB1, b' ', 0x81, 0x40, 0x9F, 0x7E, 0xE0, 0x80, 0xEF, 0xFC, 0xA1,
            0xDF, 0x88, 0x9F, b'z',
        ];
        assert_walks_as_verifier::<ShiftJisProber, ShiftJisVerifier>(&cut_and_mutated(&doc), |p| {
            walk_state(&p.walk)
        });
    }

    #[test]
    fn utf8_walk_matches_its_verifier() {
        // Two-, three- and four-byte characters, each at both ends of the
        // ranges its lead allows.
        let text = "aé\u{80}\u{7FF}\u{800}日\u{D7FF}\u{E000}\u{FFFF}🦀\u{10000}\u{10FFFF}z";
        let mut docs = cut_and_mutated(text.as_bytes());
        // Overlong forms, surrogates and scalars above U+10FFFF.
        for bad in [
            &[0xC0, 0xAF][..],
            &[0xC1, 0xBF],
            &[0xE0, 0x80, 0x80],
            &[0xE0, 0x9F, 0xBF],
            &[0xF0, 0x80, 0x80, 0x80],
            &[0xF0, 0x8F, 0xBF, 0xBF],
            &[0xED, 0xA0, 0x80],
            &[0xED, 0xBF, 0xBF],
            &[0xF4, 0x90, 0x80, 0x80],
            &[0xF5, 0x80, 0x80, 0x80],
        ] {
            let mut doc = "ok é ".as_bytes().to_vec();
            doc.extend_from_slice(bad);
            doc.extend_from_slice(" 日".as_bytes());
            docs.push(doc);
        }
        assert_walks_as_verifier::<Utf8Prober, Utf8Verifier>(&docs, |p| walk_state(&p.walk));
    }

    #[test]
    fn iso2022jp_walk_matches_its_verifier() {
        // Both JIS X 0208 designations, whitespace between characters,
        // both one-byte designations.
        let doc = [
            b'a', 0x1B, b'$', b'B', 0x24, 0x22, b' ', 0x30, 0x21, 0x1B, b'(', b'B', b'x', 0x1B,
            b'$', b'@', 0x7E, 0x7E, b'\n', 0x21, 0x21, 0x1B, b'(', b'J', b'y',
        ];
        assert_walks_as_verifier::<Iso2022JpProber, Iso2022JpVerifier>(
            &cut_and_mutated(&doc),
            |p| (p.walk.dead, p.walk.at_boundary() && !p.jis),
        );
    }

    /// The trail table inverts [`Kuten::to_sjis`] exactly as
    /// [`Kuten::from_sjis`] does, over every lead and trail byte.
    #[test]
    fn sjis_cell_decodes_as_from_sjis() {
        for lead in (0x81..=0x9Fu8).chain(0xE0..=0xEF) {
            for trail in 0..=0xFFu8 {
                assert_eq!(
                    sjis_cell(lead, trail),
                    Kuten::from_sjis(lead, trail),
                    "{lead:02X} {trail:02X}"
                );
            }
        }
    }

    #[test]
    fn thai_prober_on_thai_text() {
        // สวัสดี in TIS-620: consonant/vowel/tone patterns.
        let text = encode_thai_demo();
        let mut p = ThaiProber::new();
        p.feed(&text);
        assert!(p.confidence() > 0.5, "confidence {}", p.confidence());
        assert_eq!(p.charset(), Charset::Tis620);
    }

    #[test]
    fn thai_prober_family_discrimination() {
        let mut text = encode_thai_demo();
        text.push(0x91); // smart quote → Windows-874 marker
        let mut p = ThaiProber::new();
        p.feed(&text);
        assert_eq!(p.charset(), Charset::Windows874);

        let mut text2 = encode_thai_demo();
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
