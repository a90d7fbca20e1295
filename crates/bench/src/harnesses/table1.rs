//! Table 1 — languages and their corresponding character encoding
//! schemes, plus the alias table the META classifier accepts and a live
//! round-trip of the detector on each encoding.

use crate::figures::Checks;
use langcrawl_charset::encode::{
    encode_japanese, encode_thai, japanese_demo_tokens, thai_demo_tokens,
};
use langcrawl_charset::{charset_from_label, detect, Charset, Language};

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    println!("== Table 1: Languages and their corresponding character encoding schemes ==\n");
    println!(
        "{:<12} {:<40}",
        "Language", "Character Encoding Scheme (charset name)"
    );
    println!("{:-<12} {:-<40}", "", "");
    for lang in [Language::Japanese, Language::Thai] {
        let names: Vec<&str> = lang.charsets().iter().map(|c| c.label()).collect();
        println!("{:<12} {:<40}", lang.name(), names.join(", "));
    }

    println!("\nAlias resolution (META classifier path):");
    for (alias, expect) in [
        ("EUC-JP", Charset::EucJp),
        ("x-euc-jp", Charset::EucJp),
        ("Shift_JIS", Charset::ShiftJis),
        ("x-sjis", Charset::ShiftJis),
        ("Windows-31J", Charset::ShiftJis),
        ("iso-2022-jp", Charset::Iso2022Jp),
        ("TIS-620", Charset::Tis620),
        ("tis620.2533", Charset::Tis620),
        ("Windows-874", Charset::Windows874),
        ("ISO-8859-11", Charset::Iso885911),
    ] {
        let got = charset_from_label(alias);
        println!(
            "  {:<16} -> {:<14} language={:<10} [{}]",
            alias,
            got.label(),
            got.language().map_or("-", |l| l.name()),
            checks.ok(got == expect)
        );
    }

    println!("\nDetector round-trip (encode demo text, detect, map to language):");
    let ja = japanese_demo_tokens();
    let ja: Vec<_> = ja.iter().cycle().take(ja.len() * 8).copied().collect();
    for cs in [
        Charset::EucJp,
        Charset::ShiftJis,
        Charset::Iso2022Jp,
        Charset::Utf8,
    ] {
        let d = detect(&encode_japanese(&ja, cs));
        println!(
            "  Japanese text as {:<12} -> detected {:<12} language={:<10} [{}]",
            cs.label(),
            d.charset.label(),
            d.language().map_or("-", |l| l.name()),
            checks.ok(d.language() == Some(Language::Japanese))
        );
    }
    let th = thai_demo_tokens();
    let th: Vec<_> = th.iter().cycle().take(th.len() * 8).copied().collect();
    for cs in [Charset::Tis620, Charset::Utf8] {
        let d = detect(&encode_thai(&th, cs));
        println!(
            "  Thai text as {:<16} -> detected {:<12} language={:<10} [{}]",
            cs.label(),
            d.charset.label(),
            d.language().map_or("-", |l| l.name()),
            checks.ok(d.language() == Some(Language::Thai))
        );
    }
    checks
}
