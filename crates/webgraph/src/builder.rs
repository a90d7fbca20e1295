//! Hand-crafted web spaces — build the paper's diagrams as test fixtures.
//!
//! The generator produces statistically realistic spaces; tests of
//! strategy *semantics* want the opposite: tiny graphs whose every edge
//! is placed deliberately. [`WebSpaceBuilder`] constructs such spaces —
//! e.g. the exact chain diagrams of the paper's Fig. 1 (limited-distance
//! tunneling through N consecutive irrelevant pages) — and runs the full
//! structural invariant check before handing the space out.

use crate::graph::WebSpace;
use crate::page::{HostMeta, HttpStatus, PageId, PageKind, PageMeta};
use langcrawl_charset::{Charset, Language};

/// Builder for explicit, deterministic web spaces.
#[derive(Debug)]
pub struct WebSpaceBuilder {
    target: Language,
    pages: Vec<PageMeta>,
    hosts: Vec<HostMeta>,
    adjacency: Vec<Vec<PageId>>,
    seeds: Vec<PageId>,
    current_host: Option<u32>,
}

impl WebSpaceBuilder {
    /// Start building a space for the given target language.
    // lint:allow(test-only-pub): the root and core integration tests hand-build spaces with it
    pub fn new(target: Language) -> Self {
        WebSpaceBuilder {
            target,
            pages: Vec::new(),
            hosts: Vec::new(),
            adjacency: Vec::new(),
            seeds: Vec::new(),
            current_host: None,
        }
    }

    /// Open a new host; subsequent pages are placed on it. Returns the
    /// host id.
    // lint:allow(test-only-pub): the root and core integration tests hand-build spaces with it
    pub fn host(&mut self, name: &str, language: Language) -> u32 {
        let id = self.hosts.len() as u32;
        self.hosts.push(HostMeta {
            name: name.to_string(),
            language,
            first_page: self.pages.len() as PageId,
            page_count: 0,
            island: false,
        });
        self.current_host = Some(id);
        id
    }

    /// Add an OK HTML page in the given language on the current host;
    /// its META label is honest. Returns the page id.
    ///
    /// # Panics
    /// Panics if no host is open.
    // lint:allow(test-only-pub): the root and core integration tests hand-build spaces with it
    pub fn page(&mut self, lang: Language) -> PageId {
        let host = self.current_host.expect("open a host before adding pages");
        let charset = match lang {
            Language::Thai => Charset::Tis620,
            Language::Japanese => Charset::EucJp,
            Language::Korean => Charset::EucKr,
            Language::Chinese => Charset::Gb2312,
            Language::Other => Charset::Ascii,
        };
        let id = self.pages.len() as PageId;
        self.pages.push(PageMeta {
            host,
            kind: PageKind::Html,
            status: HttpStatus::Ok,
            true_charset: charset,
            labeled_charset: Some(charset),
            size: 4_096,
            lang: Some(lang),
            island_depth: 0,
        });
        self.adjacency.push(Vec::new());
        self.hosts[host as usize].page_count += 1;
        id
    }

    /// Override a page's META label (mislabeling fixtures).
    // lint:allow(test-only-pub): tests/integration_edge_cases.rs mislabels a page with it
    pub fn relabel(&mut self, page: PageId, label: Option<Charset>) -> &mut Self {
        self.pages[page as usize].labeled_charset = label;
        self
    }

    /// Add a directed link.
    pub fn link(&mut self, from: PageId, to: PageId) -> &mut Self {
        self.adjacency[from as usize].push(to);
        self
    }

    /// Add a chain of links `a → b → c → …`.
    // lint:allow(test-only-pub): the root and core integration tests hand-build spaces with it
    pub fn chain(&mut self, pages: &[PageId]) -> &mut Self {
        for w in pages.windows(2) {
            self.link(w[0], w[1]);
        }
        self
    }

    /// Mark a page as a crawl seed.
    // lint:allow(test-only-pub): the root and core integration tests hand-build spaces with it
    pub fn seed(&mut self, page: PageId) -> &mut Self {
        self.seeds.push(page);
        self
    }

    /// Finish: validate invariants and return the space.
    ///
    /// # Panics
    /// Panics when the assembled space is structurally inconsistent (a
    /// fixture bug, not an input condition).
    pub fn build(self) -> WebSpace {
        let mut offsets = Vec::with_capacity(self.pages.len() + 1);
        offsets.push(0u32);
        let mut edges = Vec::new();
        for outs in &self.adjacency {
            edges.extend_from_slice(outs);
            offsets.push(edges.len() as u32);
        }
        let ws = WebSpace {
            pages: self.pages,
            offsets,
            edges,
            hosts: self.hosts,
            seeds: self.seeds,
            target: self.target,
            gen_seed: 0,
            fault: crate::fault::FaultConfig::default(),
        };
        ws.check_invariants()
            .expect("builder fixture is consistent");
        ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_minimal_space() {
        let mut b = WebSpaceBuilder::new(Language::Thai);
        b.host("www.a.co.th", Language::Thai);
        let p0 = b.page(Language::Thai);
        let p1 = b.page(Language::Other);
        b.link(p0, p1).seed(p0);
        let ws = b.build();
        assert_eq!(ws.num_pages(), 2);
        assert!(ws.is_relevant(p0));
        assert!(!ws.is_relevant(p1));
        assert_eq!(ws.outlinks(p0), &[p1]);
    }

    #[test]
    fn chain_links_consecutively() {
        let mut b = WebSpaceBuilder::new(Language::Thai);
        b.host("h.co.th", Language::Thai);
        let pages: Vec<PageId> = (0..4).map(|_| b.page(Language::Thai)).collect();
        b.chain(&pages).seed(pages[0]);
        let ws = b.build();
        for w in pages.windows(2) {
            assert_eq!(ws.outlinks(w[0]), &[w[1]]);
        }
    }

    #[test]
    fn relabel_creates_mislabeled_fixture() {
        let mut b = WebSpaceBuilder::new(Language::Thai);
        b.host("h.co.th", Language::Thai);
        let p = b.page(Language::Thai);
        b.relabel(p, Some(Charset::Latin1)).seed(p);
        let ws = b.build();
        assert!(ws.is_relevant(p), "ground truth unchanged");
        assert_eq!(ws.meta(p).labeled_charset, Some(Charset::Latin1));
    }

    #[test]
    #[should_panic(expected = "open a host")]
    fn page_requires_host() {
        WebSpaceBuilder::new(Language::Thai).page(Language::Thai);
    }

    #[test]
    #[should_panic(expected = "consistent")]
    fn invalid_seed_is_caught() {
        let mut b = WebSpaceBuilder::new(Language::Thai);
        b.host("h.co.th", Language::Thai);
        let _ = b.page(Language::Thai);
        b.seed(99);
        b.build();
    }
}
