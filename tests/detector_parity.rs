//! Detector parity: `detect` and `detect_with` skip the Latin-1 floor
//! once a structured prober has reached its ceiling. `detect_reference`
//! below is the procedure without that skip, built from the public
//! probers alone: every prober scans every document, and the best
//! positive confidence wins, the earlier prober on a tie. The two must
//! agree bit for bit on charset, confidence and language for every
//! OK-HTML page of four fixed spaces:
//!
//! * whole pages under the default configuration (`detect` and
//!   `detect_with`);
//! * whole pages with no byte cap and no confidence floor;
//! * pages with every 7th byte's high bit flipped, under both
//!   configurations. The flips break the structured encodings, so the
//!   Latin-1 floor gets to run and win.
//!
//! On those pages the best structured confidence is either below 0.10
//! or above 0.5, so they cannot tell the ceiling from a lower cutoff. A
//! second test sweeps synthetic documents whose best structured
//! confidence crosses the ceiling in small steps while Latin-1 scores
//! exactly the ceiling.
//!
//! Both sides of that comparison are built from the same probers, so a
//! change that moved a prober's confidence would move both and still
//! agree. A third test pins the verdicts absolutely: per space, one
//! FNV-1a digest over every prober's charset, confidence bits and hint
//! and over `detect_with`'s verdict, for the same pages, forms and
//! configurations.

use langcrawl_charset::prober::{
    EucJpProber, EucKrProber, Gb2312Prober, Iso2022JpProber, Latin1Prober, Prober, ShiftJisProber,
    ThaiProber, Utf8Prober,
};
use langcrawl_charset::{detect, detect_with, Charset, Detection, DetectorConfig, Language};
use langcrawl_webgraph::{GeneratorConfig, WebSpace};

/// Charset, confidence bits and language of a verdict.
type Verdict = (Charset, u64, Option<Language>);

fn verdict(d: &Detection) -> Verdict {
    (d.charset, d.confidence.to_bits(), d.language())
}

fn verdict_of(charset: Charset, confidence: f64, hint: Option<Language>) -> Verdict {
    (charset, confidence.to_bits(), charset.language().or(hint))
}

/// The decision procedure with every prober run unconditionally.
fn detect_reference(bytes: &[u8], config: &DetectorConfig) -> Verdict {
    let slice = &bytes[..bytes.len().min(config.max_bytes)];
    if slice.iter().all(|&b| b < 0x80 && b != 0x1B) {
        return verdict_of(Charset::Ascii, 1.0, None);
    }
    let mut iso = Iso2022JpProber::new();
    iso.feed(slice);
    if iso.confidence() > 0.0 {
        return verdict_of(iso.charset(), iso.confidence(), iso.language_hint());
    }
    let mut best: Option<(f64, Charset, Option<Language>)> = None;
    for (conf, cs, hint) in run_probers(slice) {
        if conf > 0.0 && best.is_none_or(|(c, _, _)| conf > c) {
            best = Some((conf, cs, hint));
        }
    }
    match best {
        Some((conf, cs, hint)) if conf >= config.min_confidence => verdict_of(cs, conf, hint),
        _ => verdict_of(Charset::Unknown, 0.0, None),
    }
}

/// Confidence, charset and hint of each of the seven probers after the
/// whole document, in the composite detector's tie-break order: the six
/// structured probers, then Latin-1.
fn run_probers(slice: &[u8]) -> Vec<(f64, Charset, Option<Language>)> {
    every_prober()
        .into_iter()
        .skip(1)
        .map(|mut prober| {
            prober.feed(slice);
            (
                prober.confidence(),
                prober.charset(),
                prober.language_hint(),
            )
        })
        .collect()
}

/// Every prober the composite detector runs, fresh: ISO-2022-JP, then
/// the seven of [`run_probers`] in its order.
fn every_prober() -> [Box<dyn Prober>; 8] {
    [
        Box::new(Iso2022JpProber::new()),
        Box::new(Utf8Prober::new()),
        Box::new(EucJpProber::new()),
        Box::new(ShiftJisProber::new()),
        Box::new(EucKrProber::new()),
        Box::new(Gb2312Prober::new()),
        Box::new(ThaiProber::new()),
        Box::new(Latin1Prober::new()),
    ]
}

fn spaces() -> [(&'static str, WebSpace); 4] {
    [
        ("japanese_like", GeneratorConfig::japanese_like()),
        ("thai_like", GeneratorConfig::thai_like()),
        ("korean_like", GeneratorConfig::korean_like()),
        ("chinese_like", GeneratorConfig::chinese_like()),
    ]
    .map(|(name, preset)| (name, preset.scaled(2_000).build(29)))
}

#[test]
fn detect_matches_the_reference_on_every_page() {
    let default = DetectorConfig::default();
    let uncapped = DetectorConfig {
        max_bytes: usize::MAX,
        min_confidence: 0.0,
    };
    let mut latin1_wins = 0;
    for (name, ws) in spaces() {
        for p in ws.page_ids().filter(|&p| ws.meta(p).is_ok_html()) {
            let page = ws.synthesize_page(p);
            let flipped: Vec<u8> = page
                .iter()
                .enumerate()
                .map(|(i, &b)| if i % 7 == 6 { b ^ 0x80 } else { b })
                .collect();
            assert_eq!(
                verdict(&detect(&page)),
                detect_reference(&page, &default),
                "{name} page {p}: detect"
            );
            for (form, bytes) in [("whole", &page), ("flipped", &flipped)] {
                for (label, config) in [("default", &default), ("uncapped", &uncapped)] {
                    let want = detect_reference(bytes, config);
                    assert_eq!(
                        verdict(&detect_with(bytes, config)),
                        want,
                        "{name} page {p}: {form}, {label} config"
                    );
                    latin1_wins += usize::from(want.0 == Charset::Latin1);
                }
            }
        }
    }
    // Without Latin-1 verdicts the comparison could not notice a skip
    // that drops the floor where it would have won.
    assert!(latin1_wins > 0, "no page fell to the Latin-1 floor");
}

/// Documents of 200 `letter, EUC cell` triples, `hot` of the cells from a
/// hangul row and the rest from a hanja row. Every high byte follows a
/// letter or a byte at or above 0xC0, so Latin-1 scores exactly its
/// ceiling, while the EUC-KR score climbs from 0.15 to 1.0 in steps of
/// under 0.005 and crosses the ceiling on the way.
#[test]
fn detect_matches_the_reference_across_the_ceiling() {
    let config = DetectorConfig::default();
    let (mut floor_won_near, mut structured_won) = (0, 0);
    for hot in 0..=200u8 {
        let doc: Vec<u8> = (0..200u8)
            .flat_map(|i| {
                let row = if i < hot { 40 } else { 90 };
                [b'a', 0xA0 + row, 0xA1 + i % 94]
            })
            .collect();
        let want = detect_reference(&doc, &config);
        assert_eq!(verdict(&detect(&doc)), want, "{hot} hot cells");
        let probers = run_probers(&doc);
        assert_eq!(probers[6].0, Latin1Prober::CEILING, "{hot} hot cells");
        let structured = probers[..6].iter().map(|p| p.0).fold(0.0, f64::max);
        if want.0 == Charset::Latin1 {
            floor_won_near += usize::from(structured > Latin1Prober::CEILING - 0.01);
        } else {
            structured_won += 1;
        }
    }
    // Both sides of the ceiling, with the floor winning within 0.01 of
    // it: a skip that started below the ceiling would drop those wins.
    assert!(floor_won_near > 0 && structured_won > 0);
}

/// Each pinned space's digest of [`verdict_digest`], taken before the
/// probers' whole-character kernels and never changed since.
const PINNED: [(&str, u64); 4] = [
    ("japanese_like", 0xbc64_9ccc_b470_ee03),
    ("thai_like", 0xbb16_a688_4df9_1883),
    ("korean_like", 0x87b9_fb71_30b7_1b9c),
    ("chinese_like", 0xfd28_ec5d_eedf_33ab),
];

/// FNV-1a over, for every OK-HTML page in page order, whole and with
/// every 7th byte's high bit flipped, under the default configuration
/// and with no byte cap and no confidence floor: each prober's charset
/// label, confidence bits and hint on the configuration's slice, then
/// `detect_with`'s charset, confidence bits and language.
fn verdict_digest(ws: &WebSpace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut fold_verdict = |charset: Charset, bits: u64, lang: Option<Language>| {
        fold(charset.label().as_bytes());
        fold(&bits.to_le_bytes());
        fold(lang.map_or("-", Language::name).as_bytes());
        fold(b";");
    };
    let uncapped = DetectorConfig {
        max_bytes: usize::MAX,
        min_confidence: 0.0,
    };
    for p in ws.page_ids().filter(|&p| ws.meta(p).is_ok_html()) {
        let page = ws.synthesize_page(p);
        let flipped: Vec<u8> = page
            .iter()
            .enumerate()
            .map(|(i, &b)| if i % 7 == 6 { b ^ 0x80 } else { b })
            .collect();
        for bytes in [&page, &flipped] {
            for config in [&DetectorConfig::default(), &uncapped] {
                let slice = &bytes[..bytes.len().min(config.max_bytes)];
                for mut prober in every_prober() {
                    prober.feed(slice);
                    fold_verdict(
                        prober.charset(),
                        prober.confidence().to_bits(),
                        prober.language_hint(),
                    );
                }
                let d = detect_with(bytes, config);
                fold_verdict(d.charset, d.confidence.to_bits(), d.language());
            }
        }
    }
    h
}

#[test]
fn verdicts_match_pinned_digests() {
    let got: Vec<(&str, u64)> = spaces()
        .iter()
        .map(|(name, ws)| (*name, verdict_digest(ws)))
        .collect();
    let shown: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("{name} {h:#018x}"))
        .collect();
    assert_eq!(got, PINNED, "verdict digests: {}", shown.join(", "));
}
