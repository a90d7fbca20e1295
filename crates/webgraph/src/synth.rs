//! Content synthesis: render any page of a web space as HTML bytes.
//!
//! Metadata mode (the default for large runs) replays recorded charsets
//! exactly as the paper's trace-driven simulator did. Content mode goes
//! further: the page body is materialised as real HTML in the page's
//! **true** charset, with the **labeled** charset in its META tag (the
//! two disagree on mislabeled pages) and real `<a href>` links to the
//! page's outlink URLs. The classifier then runs the actual byte
//! detector / META parser — the full §3.2 pipeline.
//!
//! Synthesis is deterministic per `(generation_seed, page_id)`, so
//! content mode needs no stored bodies.

use crate::graph::WebSpace;
use crate::page::{PageId, PageKind, PageMeta};
use crate::text;
use langcrawl_charset::dbcs::{encode_chinese_into, encode_korean_into, DbToken};
use langcrawl_charset::encode::{encode_japanese_into, encode_thai_into, JaToken, ThToken};
use langcrawl_charset::{Charset, Language};

use langcrawl_rng::{mix, Rng};

impl WebSpace {
    /// Render a page as HTML bytes in its true charset. Non-HTML pages
    /// yield a short placeholder body (binary resources are opaque to the
    /// crawler anyway); failed pages yield an empty body.
    pub fn synthesize_page(&self, p: PageId) -> Vec<u8> {
        let meta = self.meta(p);
        match meta.kind {
            PageKind::Failed => Vec::new(),
            PageKind::Other => b"GIF89a\x01\x00\x01\x00\x80\x00\x00".to_vec(),
            PageKind::Html => self.synthesize_html(p),
        }
    }

    /// Every piece of the page, text and URLs alike, is written straight
    /// into the one output buffer, and every body text is drawn into the
    /// one token buffer.
    fn synthesize_html(&self, p: PageId) -> Vec<u8> {
        let meta = self.meta(p);
        // Per-page deterministic stream: splitmix the ids together.
        let mut rng = Rng::seed_from_u64(mix(self.generation_seed(), p as u64));
        let mut toks = Tokens::default();

        let mut out: Vec<u8> = Vec::with_capacity(meta.size as usize / 4);
        out.extend_from_slice(b"<html><head>");
        if let Some(label) = meta.labeled_charset {
            out.extend_from_slice(
                br#"<meta http-equiv="content-type" content="text/html; charset="#,
            );
            out.extend_from_slice(label.label().as_bytes());
            out.extend_from_slice(br#"">"#);
        }
        out.extend_from_slice(b"<title>");
        body_text(meta, 8, &mut rng, &mut toks, &mut out);
        out.extend_from_slice(b"</title></head><body>");

        // Interleave text paragraphs with the page's real outlinks.
        let links = self.outlinks(p);
        let n_par = 1 + links.len().min(8);
        let mut li = 0usize;
        for _ in 0..n_par {
            out.extend_from_slice(b"<p>");
            body_text(meta, 40, &mut rng, &mut toks, &mut out);
            out.extend_from_slice(b"</p>\n");
            // A run of anchors after each paragraph.
            let take = (links.len() - li).min(1 + (links.len() / n_par));
            for &t in &links[li..li + take] {
                out.extend_from_slice(b"<a href=\"");
                self.write_url(t, &mut out);
                out.extend_from_slice(b"\">");
                body_text(meta, 3, &mut rng, &mut toks, &mut out);
                out.extend_from_slice(b"</a> ");
            }
            li += take;
        }
        for &t in &links[li..] {
            out.extend_from_slice(b"<a href=\"");
            self.write_url(t, &mut out);
            out.extend_from_slice(b"\">x</a> ");
        }
        out.extend_from_slice(b"</body></html>");
        out
    }
}

/// Token buffers for one page's body texts. A page has one language, so
/// only that language's buffer is ever filled.
#[derive(Default)]
struct Tokens {
    ja: Vec<JaToken>,
    th: Vec<ThToken>,
    db: Vec<DbToken>,
}

/// Append body text in the page's language and charset to `out`. `units`
/// is roughly "words": tokens are scaled so languages look comparable.
fn body_text(meta: &PageMeta, units: usize, rng: &mut Rng, toks: &mut Tokens, out: &mut Vec<u8>) {
    match (meta.lang, meta.true_charset) {
        (Some(Language::Japanese), cs) => {
            text::japanese_tokens_into(units * 4, rng, &mut toks.ja);
            encode_japanese_into(&toks.ja, cs, out);
        }
        (Some(Language::Thai), cs) => {
            text::thai_tokens_into(units * 4, rng, &mut toks.th);
            encode_thai_into(&toks.th, cs, out);
        }
        (Some(Language::Korean), cs) => {
            text::korean_tokens_into(units * 3, rng, &mut toks.db);
            encode_korean_into(&toks.db, cs, out);
        }
        (Some(Language::Chinese), cs) => {
            text::chinese_tokens_into(units * 4, rng, &mut toks.db);
            encode_chinese_into(&toks.db, cs, out);
        }
        // The filler words are ASCII, so their bytes are the same in
        // every remaining charset. "Other" UTF-8 and Latin-1 pages end in
        // accented Latin so they are not bare ASCII.
        (Some(Language::Other), Charset::Utf8) => {
            text::write_english_words(units, rng, out);
            out.extend_from_slice(" caf\u{e9} d\u{e9}j\u{e0}".as_bytes());
        }
        (Some(Language::Other), Charset::Latin1) => {
            text::write_english_words(units, rng, out);
            out.extend_from_slice(b" caf\xE9");
        }
        _ => text::write_english_words(units, rng, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeneratorConfig;
    use langcrawl_html::{extract_links, extract_meta_charset};
    use langcrawl_url::Url;

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(3_000).build(11)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let ws = space();
        let p = ws.seeds()[0];
        assert_eq!(ws.synthesize_page(p), ws.synthesize_page(p));
    }

    #[test]
    fn meta_label_is_recoverable() {
        let ws = space();
        let mut checked = 0;
        for p in ws.page_ids().take(500) {
            let m = ws.meta(p);
            if !m.is_ok_html() {
                continue;
            }
            let bytes = ws.synthesize_page(p);
            let extracted = extract_meta_charset(&bytes);
            assert_eq!(extracted, m.labeled_charset, "page {p}");
            checked += 1;
        }
        assert!(checked > 50);
    }

    #[test]
    fn links_are_recoverable() {
        let ws = space();
        for p in ws.page_ids().take(200) {
            let m = ws.meta(p);
            if !m.is_ok_html() {
                continue;
            }
            let bytes = ws.synthesize_page(p);
            let base = Url::parse(&ws.url(p)).unwrap();
            let extracted = extract_links(&bytes, &base);
            let expected: std::collections::HashSet<String> = ws
                .outlinks(p)
                .iter()
                .map(|&t| langcrawl_url::normalize(&Url::parse(&ws.url(t)).unwrap()))
                .collect();
            let got: std::collections::HashSet<String> = extracted.into_iter().collect();
            assert_eq!(got, expected, "page {p}");
        }
    }

    #[test]
    fn detector_recovers_true_charset_language() {
        let ws = space();
        let target = ws.target_language();
        let mut hits = 0u32;
        let mut total = 0u32;
        for p in ws.page_ids() {
            let m = ws.meta(p);
            if !m.is_ok_html() || m.lang != Some(target) {
                continue;
            }
            total += 1;
            if total > 150 {
                break;
            }
            let bytes = ws.synthesize_page(p);
            let d = langcrawl_charset::detect(&bytes);
            if d.language() == Some(target) {
                hits += 1;
            }
        }
        let rate = hits as f64 / total.min(150) as f64;
        assert!(rate > 0.9, "detector hit rate {rate}");
    }

    #[test]
    fn failed_pages_have_empty_bodies() {
        let ws = space();
        let failed = ws
            .page_ids()
            .find(|&p| ws.meta(p).kind == PageKind::Failed)
            .expect("some failed page");
        assert!(ws.synthesize_page(failed).is_empty());
    }

    #[test]
    fn body_size_tracks_out_degree_not_panics() {
        let ws = space();
        for p in ws.page_ids().take(100) {
            let _ = ws.synthesize_page(p);
        }
    }
}
