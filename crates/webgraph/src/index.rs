//! URL index — the virtual web's name resolution.
//!
//! Metadata-mode simulation works on [`PageId`]s, but a *content-mode*
//! crawler only ever sees URL strings it extracted from HTML. The
//! [`UrlIndex`] plays the role of DNS + HTTP routing: it maps a
//! canonical URL string back to the page the virtual web space serves
//! there. Unresolvable URLs are the simulation's "host not found".

use crate::graph::WebSpace;
use crate::page::PageId;
use langcrawl_url::{normalize, Url};
use std::collections::HashMap;

/// Canonical-URL → page map for one web space.
#[derive(Debug)]
pub struct UrlIndex {
    map: HashMap<String, PageId>,
}

impl UrlIndex {
    /// Build the index (one pass over the space; URLs are derived, not
    /// stored, so this is the only place they are all materialised).
    pub fn build(ws: &WebSpace) -> UrlIndex {
        let mut map = HashMap::with_capacity(ws.num_pages());
        for p in ws.page_ids() {
            let url = ws.url(p);
            let canon = normalize(&Url::parse(&url).expect("generated URLs parse"));
            let prev = map.insert(canon, p);
            debug_assert!(prev.is_none(), "URL collision at page {p}");
        }
        UrlIndex { map }
    }

    /// Resolve a canonical URL string (as produced by
    /// [`langcrawl_html::extract_links`]) to its page.
    pub fn resolve(&self, canonical_url: &str) -> Option<PageId> {
        self.map.get(canonical_url).copied()
    }

    /// Number of indexed URLs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UrlIndex {
        /// Resolve a raw URL string, canonicalizing first.
        fn resolve_raw(&self, url: &str) -> Option<PageId> {
            let canon = normalize(&Url::parse(url).ok()?);
            self.resolve(&canon)
        }
    }
    use crate::config::GeneratorConfig;

    #[test]
    fn every_page_resolves() {
        let ws = GeneratorConfig::thai_like().scaled(2_000).build(3);
        let idx = UrlIndex::build(&ws);
        assert_eq!(idx.len(), ws.num_pages());
        for p in ws.page_ids().step_by(13) {
            assert_eq!(idx.resolve_raw(&ws.url(p)), Some(p));
        }
    }

    #[test]
    fn unknown_and_malformed_urls_do_not_resolve() {
        let ws = GeneratorConfig::thai_like().scaled(1_000).build(3);
        let idx = UrlIndex::build(&ws);
        assert_eq!(idx.resolve_raw("http://no-such-host.example/"), None);
        assert_eq!(idx.resolve_raw("not a url"), None);
    }

    #[test]
    fn resolution_is_canonicalization_insensitive() {
        let ws = GeneratorConfig::thai_like().scaled(1_000).build(3);
        let idx = UrlIndex::build(&ws);
        let p = ws.seeds()[0];
        let url = ws.url(p); // "http://host/"
        let shouty = url.to_uppercase();
        assert_eq!(idx.resolve_raw(&shouty), Some(p), "{shouty}");
        // Explicit default port spelling: http://host:80/
        let with_port = format!("{}:80/", url.trim_end_matches('/'));
        assert_eq!(idx.resolve_raw(&with_port), Some(p), "{with_port}");
    }
}
