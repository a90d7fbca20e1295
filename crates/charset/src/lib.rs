//! # langcrawl-charset — character-encoding detection and synthesis
//!
//! The language classifier of *"Simulation Study of Language Specific Web
//! Crawling"* (Somboonviwat et al., 2005) decides whether a page is in the
//! target language from its **character encoding scheme**, obtained either
//! from the HTML `<meta>` tag or from a byte-distribution detector (the
//! paper used the Mozilla Charset Detector, Li & Momoi 2001). This crate
//! re-implements that whole layer from scratch:
//!
//! * [`Charset`] / [`Language`] — the Table 1 mapping: Japanese ⇄
//!   {EUC-JP, Shift_JIS, ISO-2022-JP}, Thai ⇄ {TIS-620, Windows-874,
//!   ISO-8859-11}.
//! * [`labels`] — IANA-style charset label parsing (`charset=EUC-JP`,
//!   `x-sjis`, …) for the META path.
//! * [`detect`] — a composite detector in the style of Li & Momoi: an
//!   escape-sequence prober (ISO-2022-JP), multibyte probers that validate
//!   and decode one whole character at a time and feed a
//!   character-distribution analysis (UTF-8, EUC-JP, Shift_JIS, EUC-KR,
//!   GB2312; see [`prober`]), and single-byte frequency probers (Thai
//!   encodings, Latin-1). The validity state machines of [`sm`] are the
//!   reference those probers are tested against.
//! * [`encode`] / [`decode`] — algorithmic encoders/decoders used by the
//!   web-space generator to synthesize page bytes with a known ground-truth
//!   encoding, so the detector can be validated end-to-end. Japanese text
//!   is modeled at the JIS X 0208 *kuten* level (see [`kuten`]); Thai at
//!   the TIS-620 byte level (see [`thai`]).
//!
//! ## Detecting
//!
//! ```
//! use langcrawl_charset::{detect, Charset, Language};
//!
//! // "konnichiwa" in hiragana, EUC-JP encoded (row 4 lead byte 0xA4).
//! let eucjp = [0xA4, 0xB3, 0xA4, 0xF3, 0xA4, 0xCB, 0xA4, 0xC1, 0xA4, 0xCF];
//! let d = detect(&eucjp);
//! assert_eq!(d.charset, Charset::EucJp);
//! assert_eq!(d.language(), Some(Language::Japanese));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbcs;
pub mod decode;
pub mod detector;
pub mod dist;
pub mod encode;
pub mod kuten;
pub mod labels;
pub mod prober;
pub mod sm;
pub mod thai;

mod types;

pub use detector::{detect, detect_with, Detection, DetectorConfig};
pub use labels::charset_from_label;
pub use types::{Charset, Language};
