//! The charset and language taxonomy (the paper's Table 1).

use std::fmt;

/// A character encoding scheme the classifier can recognise.
///
/// The set covers every encoding in the paper's Table 1, plus the
/// surrounding encodings a crawler of that era actually met (ASCII, UTF-8,
/// Latin-1) so the detector has realistic negatives to reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Charset {
    /// Pure 7-bit US-ASCII.
    Ascii,
    /// UTF-8.
    Utf8,
    /// ISO-8859-1 (Western European single-byte).
    Latin1,
    /// EUC-JP — Japanese, Extended Unix Code packing of JIS X 0208.
    EucJp,
    /// Shift_JIS — Japanese, the Microsoft/ASCII-compatible packing.
    ShiftJis,
    /// ISO-2022-JP — Japanese, 7-bit escape-sequence encoding (RFC 1468).
    Iso2022Jp,
    /// TIS-620 — Thai Industrial Standard single-byte encoding.
    Tis620,
    /// Windows-874 — Microsoft's superset of TIS-620 (adds C1-area
    /// punctuation such as smart quotes and the euro sign).
    Windows874,
    /// ISO-8859-11 — the ISO registration of TIS-620 plus NBSP at 0xA0.
    Iso885911,
    /// EUC-KR — Korean, EUC packing of KS X 1001.
    EucKr,
    /// GB2312 (EUC-CN) — Simplified Chinese, EUC packing of GB 2312-80.
    Gb2312,
    /// Recognised label or byte pattern, but not an encoding we model.
    Unknown,
}

impl Charset {
    /// The natural language this encoding implies, per the paper's Table 1.
    ///
    /// | Language | Charsets |
    /// |---|---|
    /// | Japanese | EUC-JP, Shift_JIS, ISO-2022-JP |
    /// | Thai | TIS-620, Windows-874, ISO-8859-11 |
    ///
    /// ASCII, Latin-1 and UTF-8 carry no language signal at the charset
    /// level (`None`); for UTF-8 the *detector* can still report a language
    /// from the Unicode blocks it sees (see [`crate::Detection::language`]).
    pub fn language(self) -> Option<Language> {
        match self {
            Charset::EucJp | Charset::ShiftJis | Charset::Iso2022Jp => Some(Language::Japanese),
            Charset::Tis620 | Charset::Windows874 | Charset::Iso885911 => Some(Language::Thai),
            Charset::EucKr => Some(Language::Korean),
            Charset::Gb2312 => Some(Language::Chinese),
            Charset::Ascii | Charset::Utf8 | Charset::Latin1 | Charset::Unknown => None,
        }
    }

    /// Canonical (IANA preferred) label for this charset, as would appear
    /// in a `Content-Type: text/html; charset=...` header or META tag.
    pub fn label(self) -> &'static str {
        match self {
            Charset::Ascii => "us-ascii",
            Charset::Utf8 => "utf-8",
            Charset::Latin1 => "iso-8859-1",
            Charset::EucJp => "euc-jp",
            Charset::ShiftJis => "shift_jis",
            Charset::Iso2022Jp => "iso-2022-jp",
            Charset::Tis620 => "tis-620",
            Charset::Windows874 => "windows-874",
            Charset::Iso885911 => "iso-8859-11",
            Charset::EucKr => "euc-kr",
            Charset::Gb2312 => "gb2312",
            Charset::Unknown => "unknown",
        }
    }

    /// All concrete charsets (everything except `Unknown`), in a stable
    /// order. Used by tests and by the Table 1 regeneration binary.
    pub fn all() -> &'static [Charset] {
        &[
            Charset::Ascii,
            Charset::Utf8,
            Charset::Latin1,
            Charset::EucJp,
            Charset::ShiftJis,
            Charset::Iso2022Jp,
            Charset::Tis620,
            Charset::Windows874,
            Charset::Iso885911,
            Charset::EucKr,
            Charset::Gb2312,
        ]
    }

    /// Whether this is one of the single-byte Thai family members, which
    /// differ only in a handful of code points and are interchangeable for
    /// language identification.
    // lint:allow(test-only-pub): crates/charset/tests/proptests.rs and the webgraph generator's tests
    pub fn is_thai_family(self) -> bool {
        matches!(
            self,
            Charset::Tis620 | Charset::Windows874 | Charset::Iso885911
        )
    }

    /// Whether this is one of the Japanese family encodings.
    // lint:allow(test-only-pub): the webgraph generator's tests check sampled charsets with it
    pub fn is_japanese_family(self) -> bool {
        matches!(
            self,
            Charset::EucJp | Charset::ShiftJis | Charset::Iso2022Jp
        )
    }
}

impl fmt::Display for Charset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Natural language of a web page, as far as the crawler's classifier is
/// concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Language {
    /// Japanese — the paper's highly language-specific dataset.
    Japanese,
    /// Thai — the paper's low-specificity dataset.
    Thai,
    /// Korean — beyond the paper: the §6 "wider range" extension.
    Korean,
    /// Simplified Chinese — beyond the paper, ditto.
    Chinese,
    /// Any other language (the crawler only needs "target vs not").
    Other,
}

impl Language {
    /// English name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Language::Japanese => "Japanese",
            Language::Thai => "Thai",
            Language::Korean => "Korean",
            Language::Chinese => "Chinese",
            Language::Other => "Other",
        }
    }

    /// The charsets that imply this language (Table 1 row).
    pub fn charsets(self) -> &'static [Charset] {
        match self {
            Language::Japanese => &[Charset::EucJp, Charset::ShiftJis, Charset::Iso2022Jp],
            Language::Thai => &[Charset::Tis620, Charset::Windows874, Charset::Iso885911],
            Language::Korean => &[Charset::EucKr],
            Language::Chinese => &[Charset::Gb2312],
            Language::Other => &[],
        }
    }
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact Table 1 of the paper.
    #[test]
    fn table1_language_charset_mapping() {
        for cs in [Charset::EucJp, Charset::ShiftJis, Charset::Iso2022Jp] {
            assert_eq!(cs.language(), Some(Language::Japanese), "{cs}");
        }
        for cs in [Charset::Tis620, Charset::Windows874, Charset::Iso885911] {
            assert_eq!(cs.language(), Some(Language::Thai), "{cs}");
        }
        for cs in [Charset::Ascii, Charset::Utf8, Charset::Latin1] {
            assert_eq!(cs.language(), None, "{cs}");
        }
    }

    #[test]
    fn language_charsets_is_inverse_of_language() {
        for lang in [
            Language::Japanese,
            Language::Thai,
            Language::Korean,
            Language::Chinese,
        ] {
            for cs in lang.charsets() {
                assert_eq!(cs.language(), Some(lang));
            }
        }
        assert!(Language::Other.charsets().is_empty());
    }

    #[test]
    fn labels_are_distinct_and_lowercase() {
        let mut seen = std::collections::HashSet::new();
        for &cs in Charset::all() {
            assert!(seen.insert(cs.label()), "duplicate label {}", cs.label());
            assert_eq!(cs.label(), cs.label().to_ascii_lowercase());
        }
    }

    #[test]
    fn family_predicates() {
        assert!(Charset::Tis620.is_thai_family());
        assert!(Charset::Windows874.is_thai_family());
        assert!(Charset::Iso885911.is_thai_family());
        assert!(!Charset::EucJp.is_thai_family());
        assert!(Charset::EucJp.is_japanese_family());
        assert!(Charset::ShiftJis.is_japanese_family());
        assert!(Charset::Iso2022Jp.is_japanese_family());
        assert!(!Charset::Utf8.is_japanese_family());
    }
}
