//! Property-based tests: encode→detect and encode→decode round trips over
//! randomly generated token streams, plus totality on arbitrary bytes.

use langcrawl_charset::dbcs::{
    chinese_from_unicode, chinese_to_unicode, encode_chinese, encode_chinese_into, encode_korean,
    encode_korean_into, korean_from_unicode, korean_to_unicode, DbToken,
};
use langcrawl_charset::decode::decode;
use langcrawl_charset::encode::{
    encode_japanese, encode_japanese_into, encode_thai, encode_thai_into, JaToken, ThToken,
};
use langcrawl_charset::kuten::Kuten;
use langcrawl_charset::labels::charset_from_content_type;
use langcrawl_charset::{charset_from_label, detect, thai, Charset, Language};
use langcrawl_minicheck::{check_default, Gen};

/// Random Japanese token streams with a realistic composition: mostly
/// hiragana, some katakana/kanji/punctuation, occasional ASCII.
fn arb_japanese_tokens(g: &mut Gen) -> Vec<JaToken> {
    g.vec(30..200, |g| match g.weighted(&[5, 1, 2, 1, 1]) {
        0 => JaToken::K(Kuten::new(4, g.u8(1..=83)).unwrap()),
        1 => JaToken::K(Kuten::new(5, g.u8(1..=86)).unwrap()),
        2 => JaToken::K(Kuten::new(g.u8(16..=47), g.u8(1..=94)).unwrap()),
        3 => JaToken::K(Kuten::new(1, g.u8(1..=6)).unwrap()),
        _ => JaToken::Ascii(g.u8(0x20..=0x7E)),
    })
}

/// Random Thai token streams built from canonical syllables so the
/// orthography scorer sees genuine structure.
fn arb_thai_tokens(g: &mut Gen) -> Vec<ThToken> {
    let sylls = g.vec(15..80, |g| {
        let mut s = vec![ThToken::Thai(g.u8(0xA1..=0xCE))];
        if let Some(v) = g.option(|g| g.u8(0xD4..=0xD9)) {
            s.push(ThToken::Thai(v));
        }
        if let Some(t) = g.option(|g| g.u8(0xE8..=0xEB)) {
            s.push(ThToken::Thai(t));
        }
        s
    });
    let mut out = Vec::new();
    for (i, s) in sylls.into_iter().enumerate() {
        if i % 6 == 5 {
            out.push(ThToken::Ascii(b' '));
        }
        out.extend(s);
    }
    out
}

/// Random hangul-row Korean token streams.
fn arb_korean_tokens(g: &mut Gen) -> Vec<DbToken> {
    g.vec(30..150, |g| {
        DbToken::Cell(Kuten::new(g.u8(16..=40), g.u8(1..=94)).unwrap())
    })
}

/// Random Chinese token streams alternating level-1 and level-2 hanzi,
/// the tail the Chinese prober keys on.
fn arb_chinese_tokens(g: &mut Gen) -> Vec<DbToken> {
    let l1 = g.vec(40..120, |g| (g.u8(16..=55), g.u8(1..=94)));
    let l2 = g.vec(20..60, |g| (g.u8(56..=87), g.u8(1..=94)));
    let mut toks = Vec::new();
    for (a, b) in l1.iter().zip(l2.iter().cycle()) {
        toks.push(DbToken::Cell(Kuten::new(a.0, a.1).unwrap()));
        toks.push(DbToken::Cell(Kuten::new(b.0, b.1).unwrap()));
    }
    toks
}

/// Whatever Japanese legacy charset we encode into, the detector recovers
/// a Japanese verdict.
#[test]
fn japanese_encode_detect_round_trip() {
    check_default(|g| {
        let toks = arb_japanese_tokens(g);
        for cs in [Charset::EucJp, Charset::ShiftJis, Charset::Iso2022Jp] {
            let bytes = encode_japanese(&toks, cs);
            let d = detect(&bytes);
            assert_eq!(
                d.language(),
                Some(Language::Japanese),
                "charset {cs} detected as {d:?}"
            );
        }
    });
}

/// UTF-8-encoded Japanese is detected as UTF-8 with a Japanese hint.
#[test]
fn japanese_utf8_detect() {
    check_default(|g| {
        let toks = arb_japanese_tokens(g);
        let bytes = encode_japanese(&toks, Charset::Utf8);
        let d = detect(&bytes);
        assert_eq!(d.charset, Charset::Utf8);
        assert_eq!(d.language(), Some(Language::Japanese));
    });
}

/// Thai text detects as the Thai family in TIS-620 and as UTF-8+Thai in
/// UTF-8.
#[test]
fn thai_encode_detect_round_trip() {
    check_default(|g| {
        let toks = arb_thai_tokens(g);
        let bytes = encode_thai(&toks, Charset::Tis620);
        let d = detect(&bytes);
        assert!(d.charset.is_thai_family(), "detected {d:?}");
        assert_eq!(d.language(), Some(Language::Thai));

        let utf8 = encode_thai(&toks, Charset::Utf8);
        let d8 = detect(&utf8);
        assert_eq!(d8.charset, Charset::Utf8);
        assert_eq!(d8.language(), Some(Language::Thai));
    });
}

/// Decoding the encoded bytes yields the same Unicode string across every
/// charset capable of carrying the text.
#[test]
fn japanese_decode_consistency() {
    check_default(|g| {
        let toks = arb_japanese_tokens(g);
        let reference = decode(&encode_japanese(&toks, Charset::Utf8), Charset::Utf8);
        for cs in [Charset::EucJp, Charset::ShiftJis, Charset::Iso2022Jp] {
            let roundtrip = decode(&encode_japanese(&toks, cs), cs);
            assert_eq!(&roundtrip, &reference, "{cs}");
        }
        assert!(
            !reference.contains('\u{FFFD}'),
            "replacement char in decoded reference"
        );
    });
}

/// Thai decode consistency across the family.
#[test]
fn thai_decode_consistency() {
    check_default(|g| {
        let toks = arb_thai_tokens(g);
        let reference = decode(&encode_thai(&toks, Charset::Utf8), Charset::Utf8);
        for cs in [Charset::Tis620, Charset::Windows874, Charset::Iso885911] {
            let roundtrip = decode(&encode_thai(&toks, cs), cs);
            assert_eq!(&roundtrip, &reference, "{cs}");
        }
    });
}

/// Detection and decoding are total on arbitrary bytes: no panics, and
/// the confidence is always within [0, 1].
#[test]
fn detect_total_on_garbage() {
    check_default(|g| {
        let bytes = g.bytes(0..512);
        let d = detect(&bytes);
        assert!((0.0..=1.0).contains(&d.confidence));
        for &cs in Charset::all() {
            let _ = decode(&bytes, cs);
        }
    });
}

/// Label parsing returns on any string, multi-byte characters included,
/// and is ASCII case-insensitive. Half the cases run 30 to 34 bytes long
/// (a multi-byte character can overshoot by up to three), around the
/// 32-byte buffer `charset_from_label` lowercases into.
#[test]
fn label_parsing_is_total_and_case_insensitive() {
    const PIECES: &[&str] = &[
        "a",
        "Z",
        "e",
        "J",
        "-",
        "_",
        "0",
        "9",
        ".",
        " ",
        "\"",
        "'",
        ";",
        "=",
        "euc-jp",
        "SJIS",
        "tis-620",
        "charset=",
        "é",
        "ß",
        "ก",
        "日",
        "\u{10348}",
    ];
    check_default(|g| {
        let target = if g.bool(0.5) {
            g.usize(30..35)
        } else {
            g.usize(0..48)
        };
        let mut label = String::new();
        while label.len() < target {
            label.push_str(g.pick::<&str>(PIECES));
        }
        let content_type = format!("text/html; charset={label}");
        for text in [&label, &content_type] {
            let upper = text.to_ascii_uppercase();
            assert_eq!(
                charset_from_label(text),
                charset_from_label(&upper),
                "{text:?}"
            );
            assert_eq!(
                charset_from_content_type(text),
                charset_from_content_type(&upper),
                "{text:?}"
            );
        }
    });
}

/// Pure ASCII always detects as ASCII regardless of content. (The ESC
/// byte is the one 7-bit byte that is not "plain ASCII", so the
/// generator's alphabet stops short of it.)
#[test]
fn ascii_always_ascii() {
    check_default(|g| {
        let s: String = g
            .vec(0..256, |g| g.u8(0x20..=0x7E) as char)
            .into_iter()
            .collect();
        assert_eq!(detect(s.as_bytes()).charset, Charset::Ascii);
    });
}

/// Every assigned TIS-620 byte survives a byte→char→byte round trip.
#[test]
fn tis620_byte_round_trip() {
    // Small exhaustive domain — enumerate it instead of sampling.
    for b in 0x80u8..=0xFF {
        if thai::is_thai_byte(b) {
            let c = thai::to_unicode(b).unwrap();
            assert_eq!(thai::from_unicode(c), Some(b));
        } else {
            assert_eq!(thai::to_unicode(b), None);
        }
    }
}

/// Korean text detects as EUC-KR (legacy) / Korean (UTF-8) for any
/// hangul-row token stream.
#[test]
fn korean_encode_detect_round_trip() {
    check_default(|g| {
        let toks = arb_korean_tokens(g);
        let d = detect(&encode_korean(&toks, Charset::EucKr));
        assert_eq!(d.language(), Some(Language::Korean), "{d:?}");
        let d8 = detect(&encode_korean(&toks, Charset::Utf8));
        assert_eq!(d8.charset, Charset::Utf8);
        assert_eq!(d8.language(), Some(Language::Korean));
    });
}

/// Chinese text (with its level-2 tail) detects as GB2312 / Chinese.
#[test]
fn chinese_encode_detect_round_trip() {
    check_default(|g| {
        let toks = arb_chinese_tokens(g);
        let d = detect(&encode_chinese(&toks, Charset::Gb2312));
        assert_eq!(d.language(), Some(Language::Chinese), "{d:?}");
        let d8 = detect(&encode_chinese(&toks, Charset::Utf8));
        assert_eq!(d8.language(), Some(Language::Chinese));
    });
}

/// The `_into` encoders append: two calls on a non-empty buffer leave the
/// old bytes, then each slice's own encoding. So they never clear or read
/// `out`, and each ISO-2022-JP call starts and ends in ASCII.
#[test]
fn encode_into_appends() {
    fn check<T>(
        into: fn(&[T], Charset, &mut Vec<u8>),
        whole: fn(&[T], Charset) -> Vec<u8>,
        charsets: &[Charset],
        (a, b): (Vec<T>, Vec<T>),
        prefix: &[u8],
    ) {
        for &cs in charsets {
            let mut out = prefix.to_vec();
            into(&a, cs, &mut out);
            into(&b, cs, &mut out);
            assert_eq!(
                out,
                [prefix, &whole(&a, cs), &whole(&b, cs)].concat(),
                "{cs}"
            );
        }
    }
    check_default(|g| {
        let prefix = g.bytes(1..64);
        check(
            encode_japanese_into,
            encode_japanese,
            &[
                Charset::EucJp,
                Charset::ShiftJis,
                Charset::Iso2022Jp,
                Charset::Utf8,
            ],
            (arb_japanese_tokens(g), arb_japanese_tokens(g)),
            &prefix,
        );
        check(
            encode_thai_into,
            encode_thai,
            &[
                Charset::Tis620,
                Charset::Windows874,
                Charset::Iso885911,
                Charset::Utf8,
            ],
            (arb_thai_tokens(g), arb_thai_tokens(g)),
            &prefix,
        );
        check(
            encode_korean_into,
            encode_korean,
            &[Charset::EucKr, Charset::Utf8],
            (arb_korean_tokens(g), arb_korean_tokens(g)),
            &prefix,
        );
        check(
            encode_chinese_into,
            encode_chinese,
            &[Charset::Gb2312, Charset::Utf8],
            (arb_chinese_tokens(g), arb_chinese_tokens(g)),
            &prefix,
        );
    });
}

/// The DBCS model Unicode mappings are injective with exact inverses on
/// their hot rows.
#[test]
fn dbcs_unicode_round_trips() {
    check_default(|g| {
        let ku = g.u8(16..=87);
        let ten = g.u8(1..=94);
        if ku <= 40 {
            let k = Kuten::new(ku, ten).unwrap();
            assert_eq!(korean_from_unicode(korean_to_unicode(k)), Some(k));
        }
        let k = Kuten::new(ku, ten).unwrap();
        assert_eq!(chinese_from_unicode(chinese_to_unicode(k)), Some(k));
    });
}

/// Kuten ↔ every legacy encoding is bijective on the 94×94 grid.
#[test]
fn kuten_transform_bijective() {
    // Small exhaustive domain — enumerate the whole grid.
    for ku in 1u8..=94 {
        for ten in 1u8..=94 {
            let k = Kuten::new(ku, ten).unwrap();
            let [el, et] = k.to_eucjp();
            assert_eq!(Kuten::from_eucjp(el, et), Some(k));
            let [sl, st] = k.to_sjis();
            assert_eq!(Kuten::from_sjis(sl, st), Some(k));
            let [jl, jt] = k.to_jis();
            assert_eq!(Kuten::from_jis(jl, jt), Some(k));
        }
    }
}
