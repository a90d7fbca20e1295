//! Charset label (alias) resolution — the META-tag path of the classifier.
//!
//! Web authors write charset names with wild variation: `Shift_JIS`,
//! `x-sjis`, `SJIS`, `shift-jis`, … The paper's Thai experiments relied
//! entirely on these labels, so resolution must accept the alias zoo that
//! actually occurred in 2004-era pages. The alias table below follows the
//! WHATWG Encoding Standard's label sets for the encodings we model, plus
//! the historic `x-` variants Mozilla accepted.

use crate::types::Charset;

/// Resolve a charset label (the value of `charset=` in a META tag or a
/// Content-Type header) to a [`Charset`].
///
/// Matching is ASCII case-insensitive and ignores surrounding whitespace
/// and quotes. Unrecognised labels map to [`Charset::Unknown`] — a page
/// whose charset we cannot interpret is simply "not the target language"
/// to the crawler, never an error.
///
/// ```
/// use langcrawl_charset::{charset_from_label, Charset};
/// assert_eq!(charset_from_label("EUC-JP"), Charset::EucJp);
/// assert_eq!(charset_from_label(" x-sjis "), Charset::ShiftJis);
/// assert_eq!(charset_from_label("\"TIS-620\""), Charset::Tis620);
/// assert_eq!(charset_from_label("klingon-8"), Charset::Unknown);
/// ```
// lint:root(panic-free) — content mode parses the META label of every
// page it fetches, and a crawl log one per logged page, whatever they hold
pub fn charset_from_label(label: &str) -> Charset {
    let trimmed = label.trim_matches(|c: char| c.is_ascii_whitespace() || c == '"' || c == '\'');
    // Labels are short; a stack buffer lowercase avoids allocation on the
    // hot path (every crawled page consults this).
    let mut buf = [0u8; 32];
    for (slot, b) in buf.iter_mut().zip(trimmed.bytes()) {
        *slot = b.to_ascii_lowercase();
    }
    // A label longer than the buffer names no charset.
    let Some(lower) = buf.get(..trimmed.len()) else {
        return Charset::Unknown;
    };
    match lower {
        b"us-ascii" | b"ascii" | b"ansi_x3.4-1968" | b"iso-ir-6" | b"csascii" => Charset::Ascii,
        b"utf-8" | b"utf8" | b"unicode-1-1-utf-8" => Charset::Utf8,
        b"iso-8859-1" | b"iso8859-1" | b"latin1" | b"latin-1" | b"l1" | b"cp819"
        | b"iso_8859-1" | b"windows-1252" | b"cp1252" => Charset::Latin1,
        b"euc-jp" | b"eucjp" | b"x-euc-jp" | b"cseucpkdfmtjapanese" | b"x-euc" | b"euc_jp" => {
            Charset::EucJp
        }
        b"shift_jis" | b"shift-jis" | b"shiftjis" | b"sjis" | b"x-sjis" | b"s-jis"
        | b"ms_kanji" | b"csshiftjis" | b"windows-31j" | b"cp932" | b"x-ms-cp932" => {
            Charset::ShiftJis
        }
        b"iso-2022-jp" | b"iso2022jp" | b"csiso2022jp" | b"jis" | b"iso-2022-jp-2" => {
            Charset::Iso2022Jp
        }
        b"tis-620" | b"tis620" | b"tis620.2533" | b"tis-620.2533" | b"cstis620" => Charset::Tis620,
        b"windows-874" | b"cp874" | b"x-cp874" | b"ms874" | b"cp-874" => Charset::Windows874,
        b"iso-8859-11" | b"iso8859-11" | b"iso_8859-11" | b"latin/thai" => Charset::Iso885911,
        b"euc-kr" | b"euckr" | b"euc_kr" | b"x-euc-kr" | b"ks_c_5601-1987" | b"ksc5601"
        | b"ks_c_5601" | b"cseuckr" | b"korean" => Charset::EucKr,
        b"gb2312" | b"gb_2312-80" | b"csgb2312" | b"euc-cn" | b"x-euc-cn" | b"gb2312-80"
        | b"chinese" | b"csiso58gb231280" => Charset::Gb2312,
        _ => Charset::Unknown,
    }
}

/// Extract the charset label out of a Content-Type value such as
/// `text/html; charset=EUC-JP` and resolve it. Returns `None` when the
/// value has no `charset=` parameter at all (as opposed to an
/// unrecognised one, which returns `Some(Charset::Unknown)`).
///
/// ```
/// use langcrawl_charset::{labels::charset_from_content_type, Charset};
/// assert_eq!(
///     charset_from_content_type("text/html; charset=tis-620"),
///     Some(Charset::Tis620)
/// );
/// assert_eq!(charset_from_content_type("text/html"), None);
/// ```
// lint:root(panic-free) — content mode parses the `http-equiv`
// Content-Type of every page it fetches, whatever it holds
pub fn charset_from_content_type(value: &str) -> Option<Charset> {
    // Parameters are ';'-separated; charset may appear anywhere after the
    // media type and in any case.
    for param in value.split(';').skip(1) {
        let Some((name, val)) = param.trim().split_once('=') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("charset") {
            return Some(charset_from_label(val));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_labels_round_trip() {
        for &cs in Charset::all() {
            assert_eq!(charset_from_label(cs.label()), cs, "{cs}");
        }
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(charset_from_label("EUC-JP"), Charset::EucJp);
        assert_eq!(charset_from_label("Shift_JIS"), Charset::ShiftJis);
        assert_eq!(charset_from_label("TIS-620"), Charset::Tis620);
        assert_eq!(charset_from_label("UTF-8"), Charset::Utf8);
    }

    #[test]
    fn historic_aliases() {
        assert_eq!(charset_from_label("x-sjis"), Charset::ShiftJis);
        assert_eq!(charset_from_label("x-euc-jp"), Charset::EucJp);
        assert_eq!(charset_from_label("Windows-31J"), Charset::ShiftJis);
        assert_eq!(charset_from_label("jis"), Charset::Iso2022Jp);
        assert_eq!(charset_from_label("cp874"), Charset::Windows874);
        assert_eq!(charset_from_label("TIS620.2533"), Charset::Tis620);
        assert_eq!(charset_from_label("windows-1252"), Charset::Latin1);
    }

    #[test]
    fn quotes_and_whitespace_stripped() {
        assert_eq!(charset_from_label("  'euc-jp'  "), Charset::EucJp);
        assert_eq!(charset_from_label("\"utf-8\""), Charset::Utf8);
    }

    #[test]
    fn unknown_labels() {
        assert_eq!(charset_from_label(""), Charset::Unknown);
        assert_eq!(charset_from_label("big5"), Charset::Unknown);
        assert_eq!(
            charset_from_label("a-very-long-charset-label-exceeding-the-buffer-size"),
            Charset::Unknown
        );
    }

    #[test]
    fn content_type_extraction() {
        assert_eq!(
            charset_from_content_type("text/html; charset=EUC-JP"),
            Some(Charset::EucJp)
        );
        assert_eq!(
            charset_from_content_type("text/html;charset=\"shift_jis\""),
            Some(Charset::ShiftJis)
        );
        assert_eq!(
            charset_from_content_type("text/html; boundary=x; CHARSET=tis-620"),
            Some(Charset::Tis620)
        );
        assert_eq!(charset_from_content_type("text/html"), None);
        assert_eq!(
            charset_from_content_type("text/html; charset=ebcdic"),
            Some(Charset::Unknown)
        );
        assert_eq!(charset_from_content_type("text/html; charset"), None);
    }
}
