//! Synthesis golden: the bytes `WebSpace::synthesize_page` renders for
//! every page of one fixed space per preset are pinned as absolute FNV-1a
//! digests. Content mode and the detector classifier judge these bytes,
//! so a change to the text models, the encoders or the page template
//! that moves a single byte fails here by preset name.
//!
//! The pinned spaces cover every path of the renderer: each
//! (language, true charset) arm of the body text, the placeholder bodies
//! of non-HTML and failed pages, and anchors carrying outlink URLs
//! (checked by `pinned_spaces_reach_every_synthesis_path`). Generation is
//! thread-count independent, so the digests hold under any
//! `LANGCRAWL_THREADS`.

use langcrawl_charset::{Charset, Language};
use langcrawl_webgraph::{GeneratorConfig, PageKind, WebSpace};

type Preset = fn() -> GeneratorConfig;

/// Each preset's pinned digest, for the space of `SCALE` URLs built from
/// `SEED`.
const CELLS: [(&str, Preset, u64); 4] = [
    (
        "japanese_like",
        GeneratorConfig::japanese_like,
        0xf65b_47a3_59f5_8e9c,
    ),
    (
        "thai_like",
        GeneratorConfig::thai_like,
        0x68d7_1c44_dbdb_11d0,
    ),
    (
        "korean_like",
        GeneratorConfig::korean_like,
        0x17db_ca69_fa73_c366,
    ),
    (
        "chinese_like",
        GeneratorConfig::chinese_like,
        0x002b_b575_4a1e_ad7a,
    ),
];
const SCALE: u32 = 3_000;
const SEED: u64 = 17;

fn spaces() -> impl Iterator<Item = (&'static str, WebSpace, u64)> {
    CELLS
        .into_iter()
        .map(|(name, preset, want)| (name, preset().scaled(SCALE).build(SEED), want))
}

/// FNV-1a over every page's length and bytes, in page order.
fn synthesis_digest(ws: &WebSpace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in ws.page_ids() {
        let page = ws.synthesize_page(p);
        fold(&(page.len() as u64).to_le_bytes());
        fold(&page);
    }
    h
}

#[test]
fn synthesized_bytes_match_pinned_digests() {
    for (name, ws, want) in spaces() {
        let got = synthesis_digest(&ws);
        assert_eq!(got, want, "{name}: synthesis digest {got:#018x}");
    }
}

#[test]
fn pinned_spaces_reach_every_synthesis_path() {
    let required: &[(Option<Language>, Charset)] = &[
        (Some(Language::Japanese), Charset::EucJp),
        (Some(Language::Japanese), Charset::ShiftJis),
        (Some(Language::Japanese), Charset::Iso2022Jp),
        (Some(Language::Japanese), Charset::Utf8),
        (Some(Language::Thai), Charset::Tis620),
        (Some(Language::Thai), Charset::Windows874),
        (Some(Language::Thai), Charset::Iso885911),
        (Some(Language::Thai), Charset::Utf8),
        (Some(Language::Korean), Charset::EucKr),
        (Some(Language::Korean), Charset::Utf8),
        (Some(Language::Chinese), Charset::Gb2312),
        (Some(Language::Chinese), Charset::Utf8),
        (Some(Language::Other), Charset::Ascii),
        (Some(Language::Other), Charset::Latin1),
        (Some(Language::Other), Charset::Utf8),
    ];
    let mut arms = Vec::new();
    let (mut other, mut failed, mut linked) = (0, 0, 0);
    for (_, ws, _) in spaces() {
        for p in ws.page_ids() {
            let m = ws.meta(p);
            match m.kind {
                PageKind::Html => {
                    arms.push((m.lang, m.true_charset));
                    linked += usize::from(!ws.outlinks(p).is_empty());
                }
                PageKind::Other => other += 1,
                PageKind::Failed => failed += 1,
            }
        }
    }
    for arm in required {
        assert!(arms.contains(arm), "no HTML page renders {arm:?}");
    }
    assert!(
        other > 0 && failed > 0,
        "placeholders: {other} other, {failed} failed"
    );
    assert!(linked > 0, "no page renders an anchor");
}
