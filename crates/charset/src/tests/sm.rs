//! Coding-scheme state machines — byte-sequence validity verifiers.
//!
//! The first of Li & Momoi's three detection methods is the *coding scheme
//! method*: feed the byte stream through one validity automaton per
//! candidate encoding and eliminate encodings that hit an illegal
//! transition. Each verifier here is a table-driven DFA exposing the same
//! tiny interface ([`Verifier`]), fed byte-at-a-time.
//!
//! These automata are test code, the crate's validity reference. The
//! probers ([`crate::prober`]) do not step them: each walks its document
//! one whole character at a time, validating and decoding together. The
//! prober tests hold every prober to its verifier here (dead exactly when
//! the verifier has rejected a byte, at a character boundary exactly when
//! the verifier is) over documents cut and corrupted at every position,
//! fed in pieces of many sizes; the encoder tests check their output
//! against them.
//!
//! ## Fused transition tables
//!
//! Each automaton's class lookup and transition function are fused into
//! one flat `u8` array indexed as `state * 256 + byte`; a cell packs the
//! next state in its low bits and the [`SmState`] outcome in its top two
//! bits. One feed is therefore a single indexed load plus a shift. The
//! tables are built by `const fn` at compile time from each encoding's
//! byte-range rules.

/// Outcome of feeding one byte into a verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SmState {
    /// Prefix is valid so far; mid-character.
    Continue,
    /// Prefix is valid and a character boundary was just completed.
    CharBoundary,
    /// The byte sequence can never be valid in this encoding.
    Error,
}

/// A resettable byte-sequence validity automaton for one encoding.
pub(crate) trait Verifier {
    /// Feed the next byte; returns the resulting state. After an `Error`
    /// the verifier stays in error until [`Verifier::reset`].
    fn feed(&mut self, b: u8) -> SmState;
    /// Return to the initial state.
    fn reset(&mut self);
    /// True if the stream may legally end here (not mid-character).
    fn at_boundary(&self) -> bool;
}

// Packed-cell layout: bits 0..=5 next state, bits 6..=7 the outcome.
const OUT_SHIFT: u32 = 6;
const OUT_CONTINUE: u8 = 0 << OUT_SHIFT;
const OUT_BOUNDARY: u8 = 1 << OUT_SHIFT;
const OUT_ERROR: u8 = 2 << OUT_SHIFT;
const STATE_MASK: u8 = (1 << OUT_SHIFT) - 1;

/// Decode a packed cell into `(next_state, outcome)`, flipping `dead`
/// on error. Shared by every table-driven verifier below.
#[inline]
fn step(table: &[u8], state: &mut u8, dead: &mut bool, b: u8) -> SmState {
    if *dead {
        return SmState::Error;
    }
    let cell = table[(*state as usize) * 256 + b as usize];
    match cell >> OUT_SHIFT {
        0 => {
            *state = cell & STATE_MASK;
            SmState::Continue
        }
        1 => {
            *state = cell & STATE_MASK;
            SmState::CharBoundary
        }
        _ => {
            *dead = true;
            SmState::Error
        }
    }
}

/// `const`-context helper: write one packed transition.
const fn set(table: &mut [u8], state: usize, b: usize, next: u8, out: u8) {
    table[state * 256 + b] = out | next;
}

// --------------------------------------------------------------------- UTF-8

// States: 0 accept, 1 one unrestricted continuation left, 2 two left,
// 5 three left; 3/4/6/7 are the restricted first continuations of
// E0 / ED / F0 / F4 sequences (overlong, surrogate and > U+10FFFF
// rejection).
const UTF8_ACCEPT: u8 = 0;

const fn utf8_table() -> [u8; 8 * 256] {
    let mut t = [OUT_ERROR; 8 * 256];
    let mut b = 0usize;
    while b < 256 {
        // State 0: lead bytes.
        match b {
            0x00..=0x7F => set(&mut t, 0, b, 0, OUT_BOUNDARY),
            0xC2..=0xDF => set(&mut t, 0, b, 1, OUT_CONTINUE),
            0xE0 => set(&mut t, 0, b, 3, OUT_CONTINUE), // reject overlong
            0xE1..=0xEC | 0xEE..=0xEF => set(&mut t, 0, b, 2, OUT_CONTINUE),
            0xED => set(&mut t, 0, b, 4, OUT_CONTINUE), // reject surrogates
            0xF0 => set(&mut t, 0, b, 6, OUT_CONTINUE), // reject overlong
            0xF1..=0xF3 => set(&mut t, 0, b, 5, OUT_CONTINUE),
            0xF4 => set(&mut t, 0, b, 7, OUT_CONTINUE), // reject > U+10FFFF
            _ => {}
        }
        // Continuation states.
        if b >= 0x80 && b <= 0xBF {
            set(&mut t, 1, b, 0, OUT_BOUNDARY);
            set(&mut t, 2, b, 1, OUT_CONTINUE);
            set(&mut t, 5, b, 2, OUT_CONTINUE);
            if b >= 0xA0 {
                set(&mut t, 3, b, 1, OUT_CONTINUE); // E0: A0..=BF
            }
            if b <= 0x9F {
                set(&mut t, 4, b, 1, OUT_CONTINUE); // ED: 80..=9F
            }
            if b >= 0x90 {
                set(&mut t, 6, b, 2, OUT_CONTINUE); // F0: 90..=BF
            }
            if b <= 0x8F {
                set(&mut t, 7, b, 2, OUT_CONTINUE); // F4: 80..=8F
            }
        }
        b += 1;
    }
    t
}

static UTF8_DFA: [u8; 8 * 256] = utf8_table();

/// UTF-8 validity DFA (RFC 3629, rejecting overlongs and surrogates).
#[derive(Debug, Clone)]
pub(crate) struct Utf8Verifier {
    state: u8,
    dead: bool,
}

impl Default for Utf8Verifier {
    fn default() -> Self {
        Self::new()
    }
}

impl Utf8Verifier {
    /// New verifier in the initial state.
    pub(crate) fn new() -> Self {
        Self {
            state: UTF8_ACCEPT,
            dead: false,
        }
    }
}

impl Verifier for Utf8Verifier {
    fn feed(&mut self, b: u8) -> SmState {
        step(&UTF8_DFA, &mut self.state, &mut self.dead, b)
    }

    fn reset(&mut self) {
        *self = Self::new();
    }

    fn at_boundary(&self) -> bool {
        !self.dead && self.state == UTF8_ACCEPT
    }
}

// -------------------------------------------------------------------- EUC-JP

// States: 0 start, 1 JIS X 0208 trail, 2 SS2 kana trail, 3/4 the two
// SS3 (JIS X 0212) trail bytes.
const fn eucjp_table() -> [u8; 5 * 256] {
    let mut t = [OUT_ERROR; 5 * 256];
    let mut b = 0usize;
    while b < 256 {
        match b {
            0x00..=0x7F => set(&mut t, 0, b, 0, OUT_BOUNDARY),
            0x8E => set(&mut t, 0, b, 2, OUT_CONTINUE),
            0x8F => set(&mut t, 0, b, 3, OUT_CONTINUE),
            0xA1..=0xFE => set(&mut t, 0, b, 1, OUT_CONTINUE),
            _ => {}
        }
        if b >= 0xA1 && b <= 0xFE {
            set(&mut t, 1, b, 0, OUT_BOUNDARY);
            set(&mut t, 3, b, 4, OUT_CONTINUE);
            set(&mut t, 4, b, 0, OUT_BOUNDARY);
            if b <= 0xDF {
                set(&mut t, 2, b, 0, OUT_BOUNDARY);
            }
        }
        b += 1;
    }
    t
}

static EUCJP_DFA: [u8; 5 * 256] = eucjp_table();

/// EUC-JP validity DFA. Accepts ASCII, the JIS X 0208 plane
/// (0xA1..=0xFE twice), half-width kana via SS2 (0x8E + 0xA1..=0xDF), and
/// JIS X 0212 via SS3 (0x8F + two 0xA1..=0xFE bytes).
#[derive(Debug, Default, Clone)]
pub(crate) struct EucJpVerifier {
    state: u8,
    dead: bool,
}

impl EucJpVerifier {
    /// New verifier in the initial state.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Verifier for EucJpVerifier {
    fn feed(&mut self, b: u8) -> SmState {
        step(&EUCJP_DFA, &mut self.state, &mut self.dead, b)
    }

    fn reset(&mut self) {
        *self = Self::default();
    }

    fn at_boundary(&self) -> bool {
        !self.dead && self.state == 0
    }
}

// ------------------------------------------------------------- EUC (94×94)

// States: 0 start, 1 trail.
const fn euc94_table() -> [u8; 2 * 256] {
    let mut t = [OUT_ERROR; 2 * 256];
    let mut b = 0usize;
    while b < 256 {
        if b < 0x80 {
            set(&mut t, 0, b, 0, OUT_BOUNDARY);
        }
        if b >= 0xA1 && b <= 0xFE {
            set(&mut t, 0, b, 1, OUT_CONTINUE);
            set(&mut t, 1, b, 0, OUT_BOUNDARY);
        }
        b += 1;
    }
    t
}

static EUC94_DFA: [u8; 2 * 256] = euc94_table();

/// Validity DFA for the plain EUC packings of KS X 1001 (EUC-KR) and
/// GB 2312 (GB2312/EUC-CN): ASCII single bytes, or two bytes both in
/// 0xA1..=0xFE. (EUC-JP differs only by its SS2/SS3 planes, which these
/// encodings do not have.)
#[derive(Debug, Default, Clone)]
pub(crate) struct Euc94Verifier {
    state: u8,
    dead: bool,
}

impl Euc94Verifier {
    /// New verifier in the initial state.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Verifier for Euc94Verifier {
    fn feed(&mut self, b: u8) -> SmState {
        step(&EUC94_DFA, &mut self.state, &mut self.dead, b)
    }

    fn reset(&mut self) {
        *self = Self::default();
    }

    fn at_boundary(&self) -> bool {
        !self.dead && self.state == 0
    }
}

// ------------------------------------------------------------------ Shift_JIS

// States: 0 start, 1 trail.
const fn sjis_table() -> [u8; 2 * 256] {
    let mut t = [OUT_ERROR; 2 * 256];
    let mut b = 0usize;
    while b < 256 {
        match b {
            0x00..=0x7F | 0xA1..=0xDF => set(&mut t, 0, b, 0, OUT_BOUNDARY),
            0x81..=0x9F | 0xE0..=0xEF => set(&mut t, 0, b, 1, OUT_CONTINUE),
            _ => {}
        }
        if matches!(b, 0x40..=0x7E | 0x80..=0xFC) {
            set(&mut t, 1, b, 0, OUT_BOUNDARY);
        }
        b += 1;
    }
    t
}

static SJIS_DFA: [u8; 2 * 256] = sjis_table();

/// Shift_JIS validity DFA. Accepts ASCII, half-width katakana
/// (0xA1..=0xDF single bytes), and double-byte characters with lead
/// 0x81..=0x9F / 0xE0..=0xEF and trail 0x40..=0x7E / 0x80..=0xFC.
#[derive(Debug, Default, Clone)]
pub(crate) struct ShiftJisVerifier {
    state: u8,
    dead: bool,
}

impl ShiftJisVerifier {
    /// New verifier in the initial state.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Verifier for ShiftJisVerifier {
    fn feed(&mut self, b: u8) -> SmState {
        step(&SJIS_DFA, &mut self.state, &mut self.dead, b)
    }

    fn reset(&mut self) {
        *self = Self::default();
    }

    fn at_boundary(&self) -> bool {
        !self.dead && self.state == 0
    }
}

// ---------------------------------------------------------------- ISO-2022-JP

// States: 0 ASCII/Roman text, 1 JIS X 0208 text (between characters),
// 2 mid 0208 character, 3 after ESC, 4 after `ESC $`, 5 after `ESC (`.
const ISO_ASCII: u8 = 0;
const ISO_ESC_DOLLAR: u8 = 4;
const ISO_ESC_PAREN: u8 = 5;

const fn iso2022_table() -> [u8; 6 * 256] {
    let mut t = [OUT_ERROR; 6 * 256];
    let mut b = 0usize;
    // Every byte >= 0x80 stays an error in every state — the encoding
    // is 7-bit by construction.
    while b < 0x80 {
        match b {
            0x1B => {
                // ESC is legal from either text state, never mid-char.
                set(&mut t, 0, b, 3, OUT_CONTINUE);
                set(&mut t, 1, b, 3, OUT_CONTINUE);
            }
            _ => set(&mut t, 0, b, 0, OUT_BOUNDARY),
        }
        if b >= 0x21 && b <= 0x7E {
            set(&mut t, 1, b, 2, OUT_CONTINUE);
            set(&mut t, 2, b, 1, OUT_BOUNDARY);
        } else if matches!(b as u8, b' ' | b'\n' | b'\r' | b'\t') {
            // Whitespace is tolerated between 0208 chars.
            set(&mut t, 1, b, 1, OUT_BOUNDARY);
        }
        b += 1;
    }
    set(&mut t, 3, b'$' as usize, 4, OUT_CONTINUE);
    set(&mut t, 3, b'(' as usize, 5, OUT_CONTINUE);
    // ESC $ @ (JIS C 6226) / ESC $ B (JIS X 0208) designate 0208.
    set(&mut t, 4, b'@' as usize, 1, OUT_BOUNDARY);
    set(&mut t, 4, b'B' as usize, 1, OUT_BOUNDARY);
    // ESC ( B (ASCII) / ESC ( J (JIS X 0201 Roman) designate 1-byte text.
    set(&mut t, 5, b'B' as usize, 0, OUT_BOUNDARY);
    set(&mut t, 5, b'J' as usize, 0, OUT_BOUNDARY);
    t
}

static ISO2022_DFA: [u8; 6 * 256] = iso2022_table();

/// ISO-2022-JP validity DFA (RFC 1468 subset). Tracks the designation
/// switched by escape sequences: ASCII / JIS-Roman (1 byte per char) vs
/// JIS X 0208 (2 bytes per char, both 0x21..=0x7E).
///
/// Any 8-bit byte is an immediate error — the encoding is 7-bit by
/// construction, which is what makes it detectable by escape scan alone.
#[derive(Debug, Default, Clone)]
pub(crate) struct Iso2022JpVerifier {
    state: u8,
    /// Number of complete, recognised escape sequences seen.
    escapes_seen: u32,
    dead: bool,
}

impl Iso2022JpVerifier {
    /// New verifier in the initial state.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// How many complete designation escape sequences have been accepted.
    /// Detection requires at least one: plain ASCII never switches sets.
    pub(crate) fn escapes_seen(&self) -> u32 {
        self.escapes_seen
    }
}

impl Verifier for Iso2022JpVerifier {
    fn feed(&mut self, b: u8) -> SmState {
        let prior = self.state;
        let out = step(&ISO2022_DFA, &mut self.state, &mut self.dead, b);
        if (prior == ISO_ESC_DOLLAR || prior == ISO_ESC_PAREN) && out != SmState::Error {
            self.escapes_seen += 1;
        }
        out
    }

    fn reset(&mut self) {
        *self = Self::default();
    }

    fn at_boundary(&self) -> bool {
        !self.dead && self.state == ISO_ASCII
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<V: Verifier>(v: &mut V, bytes: &[u8]) -> bool {
        for &b in bytes {
            if v.feed(b) == SmState::Error {
                return false;
            }
        }
        v.at_boundary()
    }

    #[test]
    fn utf8_accepts_valid() {
        let mut v = Utf8Verifier::new();
        assert!(run(&mut v, "hello ไทย 日本語 🦀".as_bytes()));
    }

    #[test]
    fn utf8_rejects_overlong_and_surrogate() {
        // Overlong "/" as C0 AF.
        assert!(!run(&mut Utf8Verifier::new(), &[0xC0, 0xAF]));
        // Overlong 3-byte: E0 80 80.
        assert!(!run(&mut Utf8Verifier::new(), &[0xE0, 0x80, 0x80]));
        // Surrogate U+D800: ED A0 80.
        assert!(!run(&mut Utf8Verifier::new(), &[0xED, 0xA0, 0x80]));
        // > U+10FFFF: F4 90 80 80.
        assert!(!run(&mut Utf8Verifier::new(), &[0xF4, 0x90, 0x80, 0x80]));
        // Bare continuation.
        assert!(!run(&mut Utf8Verifier::new(), &[0x80]));
        // FE/FF never appear.
        assert!(!run(&mut Utf8Verifier::new(), &[0xFE]));
    }

    #[test]
    fn utf8_truncation_is_not_boundary() {
        let mut v = Utf8Verifier::new();
        assert_eq!(v.feed(0xE3), SmState::Continue);
        assert!(!v.at_boundary());
        assert_eq!(v.feed(0x81), SmState::Continue);
        assert_eq!(v.feed(0x82), SmState::CharBoundary);
        assert!(v.at_boundary());
    }

    #[test]
    fn eucjp_accepts_all_planes() {
        let mut v = EucJpVerifier::new();
        // ASCII + 0208 char + half-width kana + 0212 char.
        assert!(run(
            &mut v,
            &[b'a', 0xA4, 0xA2, 0x8E, 0xB1, 0x8F, 0xA1, 0xA1, b'z']
        ));
    }

    #[test]
    fn eucjp_rejects() {
        // Lead without trail (ASCII after lead).
        assert!(!run(&mut EucJpVerifier::new(), &[0xA4, 0x41]));
        // SS2 with out-of-range kana byte.
        assert!(!run(&mut EucJpVerifier::new(), &[0x8E, 0xE0]));
        // Bare 0x80.
        assert!(!run(&mut EucJpVerifier::new(), &[0x80]));
        // Truncated double-byte at end: not a boundary.
        let mut v = EucJpVerifier::new();
        v.feed(0xA4);
        assert!(!v.at_boundary());
    }

    #[test]
    fn euc94_accepts_and_rejects() {
        let mut v = Euc94Verifier::new();
        assert!(run(&mut v, &[b'a', 0xB0, 0xA1, 0xC8, 0xFE, b'z']));
        // 0x80..0xA0 bytes are illegal anywhere.
        assert!(!run(&mut Euc94Verifier::new(), &[0x8E, 0xA1]));
        // ASCII trail after a lead is illegal.
        assert!(!run(&mut Euc94Verifier::new(), &[0xB0, 0x41]));
        // Truncated double byte is not a boundary.
        let mut t = Euc94Verifier::new();
        t.feed(0xB0);
        assert!(!t.at_boundary());
    }

    #[test]
    fn sjis_accepts() {
        let mut v = ShiftJisVerifier::new();
        // ASCII + double byte (あ = 82 A0) + half-width kana + double byte
        // in the 0xE0 lead region.
        assert!(run(&mut v, &[b'a', 0x82, 0xA0, 0xB1, 0xE0, 0x40]));
    }

    #[test]
    fn sjis_rejects() {
        // 0x7F trail is invalid.
        assert!(!run(&mut ShiftJisVerifier::new(), &[0x82, 0x7F]));
        // 0xFD lead is invalid.
        assert!(!run(&mut ShiftJisVerifier::new(), &[0xFD]));
        // Truncated double byte.
        let mut v = ShiftJisVerifier::new();
        v.feed(0x82);
        assert!(!v.at_boundary());
    }

    #[test]
    fn sjis_vs_eucjp_disambiguation_exists() {
        // The canonical ambiguity: many byte strings are valid in both.
        // But SJIS half-width-kana-heavy strings break EUC-JP and vice
        // versa. 0xA4 0xA2 (EUC あ) is valid SJIS kana too — both accept;
        // 0x82 0xA0 (SJIS あ) is invalid EUC-JP (0x82 illegal).
        assert!(!run(&mut EucJpVerifier::new(), &[0x82, 0xA0]));
        assert!(run(&mut ShiftJisVerifier::new(), &[0x82, 0xA0]));
    }

    #[test]
    fn iso2022jp_accepts_designated_text() {
        let mut v = Iso2022JpVerifier::new();
        let mut bytes = vec![b'H', b'i', b' '];
        bytes.extend_from_slice(&[0x1B, b'$', b'B']); // to JIS X 0208
        bytes.extend_from_slice(&[0x24, 0x22, 0x24, 0x24]); // two chars
        bytes.extend_from_slice(&[0x1B, b'(', b'B']); // back to ASCII
        bytes.push(b'!');
        assert!(run(&mut v, &bytes));
        assert_eq!(v.escapes_seen(), 2);
    }

    #[test]
    fn iso2022jp_rejects_8bit_and_bad_escapes() {
        assert!(!run(&mut Iso2022JpVerifier::new(), &[0x1B, b'$', b'Z']));
        assert!(!run(&mut Iso2022JpVerifier::new(), &[0xA4]));
        // ESC mid-character is illegal.
        let mut v = Iso2022JpVerifier::new();
        for &b in &[0x1B, b'$', b'B', 0x24] {
            v.feed(b);
        }
        assert_eq!(v.feed(0x1B), SmState::Error);
    }

    #[test]
    fn iso2022jp_requires_return_to_ascii_for_boundary() {
        let mut v = Iso2022JpVerifier::new();
        for &b in &[0x1B, b'$', b'B', 0x24, 0x22] {
            assert_ne!(v.feed(b), SmState::Error);
        }
        // Still designated to 0208: a conforming stream ends in ASCII.
        assert!(!v.at_boundary());
        for &b in &[0x1B, b'(', b'B'] {
            v.feed(b);
        }
        assert!(v.at_boundary());
    }

    #[test]
    fn iso2022jp_whitespace_tolerated_only_between_0208_chars() {
        // Between chars: fine.
        let mut v = Iso2022JpVerifier::new();
        for &b in &[0x1B, b'$', b'B', 0x24, 0x22, b' ', 0x24, 0x24] {
            assert_ne!(v.feed(b), SmState::Error, "byte {b:#x}");
        }
        // Mid-char: error.
        let mut m = Iso2022JpVerifier::new();
        for &b in &[0x1B, b'$', b'B', 0x24] {
            m.feed(b);
        }
        assert_eq!(m.feed(b' '), SmState::Error);
    }

    #[test]
    fn verifiers_reset() {
        let mut v = ShiftJisVerifier::new();
        v.feed(0xFD);
        assert_eq!(v.feed(b'a'), SmState::Error);
        v.reset();
        assert_eq!(v.feed(b'a'), SmState::CharBoundary);
    }

    /// ASCII is valid under every verifier — the shared subset that makes
    /// charset detection need distribution analysis at all.
    #[test]
    fn ascii_valid_everywhere() {
        let text = b"The quick brown fox, 0123456789.";
        assert!(run(&mut Utf8Verifier::new(), text));
        assert!(run(&mut EucJpVerifier::new(), text));
        assert!(run(&mut ShiftJisVerifier::new(), text));
        assert!(run(&mut Iso2022JpVerifier::new(), text));
    }

    /// The packed tables must agree with the range rules they were built
    /// from — brute-force the single-byte transitions from every state.
    #[test]
    fn tables_cover_every_byte() {
        // Spot-check a few cells that sit exactly on range boundaries.
        for (lo, hi, dfa, state) in [
            (0xA1u8, 0xFEu8, &EUC94_DFA[..], 1usize),
            (0xA1, 0xDF, &EUCJP_DFA[..], 2),
            (0x40, 0x7E, &SJIS_DFA[..], 1),
        ] {
            assert_eq!(dfa[state * 256 + lo as usize] >> OUT_SHIFT, 1);
            assert_eq!(dfa[state * 256 + hi as usize] >> OUT_SHIFT, 1);
            assert_eq!(dfa[state * 256 + (lo - 1) as usize] >> OUT_SHIFT, 2);
            if hi != 0xFE {
                assert_eq!(dfa[state * 256 + (hi + 1) as usize] >> OUT_SHIFT, 2);
            }
        }
    }
}
