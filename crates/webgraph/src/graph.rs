//! The [`WebSpace`]: a compact, immutable snapshot of a virtual web.
//!
//! Pages live in a struct-of-arrays layout with CSR adjacency — the
//! representation that lets a few hundred thousand pages and millions of
//! edges simulate at tens of millions of queue operations per second
//! without pointer chasing. URL strings are *derived on demand* from
//! (host, path-index) rather than stored: the simulator operates on
//! [`PageId`]s and only materialises URLs for logs, examples and
//! content-mode synthesis.

use crate::fault::FaultConfig;
use crate::page::{HostMeta, HttpStatus, PageId, PageKind, PageMeta};
use langcrawl_charset::Language;

/// An immutable virtual web space: pages, hosts, links, seeds.
#[derive(Debug, Clone)]
pub struct WebSpace {
    pub(crate) pages: Vec<PageMeta>,
    /// CSR offsets: outlinks of page `p` are `edges[offsets[p]..offsets[p+1]]`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) edges: Vec<PageId>,
    pub(crate) hosts: Vec<HostMeta>,
    pub(crate) seeds: Vec<PageId>,
    pub(crate) target: Language,
    /// Seed the generator used — recorded so content synthesis is
    /// reproducible per page.
    pub(crate) gen_seed: u64,
    /// Fault-model knobs the space was generated with (all-zero by
    /// default: every fetch answers the page's baked status).
    pub(crate) fault: FaultConfig,
}

impl WebSpace {
    /// Number of URLs in the space (HTML or otherwise).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of directed links.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Metadata for a page.
    #[inline]
    pub fn meta(&self, p: PageId) -> &PageMeta {
        // lint:allow(no-panic-transitive): PageId and HostId are dense indices bounded by the space's construction
        &self.pages[p as usize]
    }

    /// Outlinks of a page (empty for failed and non-HTML resources).
    #[inline]
    pub fn outlinks(&self, p: PageId) -> &[PageId] {
        // lint:allow(no-panic-transitive): PageId and HostId are dense indices bounded by the space's construction
        let lo = self.offsets[p as usize] as usize;
        let hi = self.offsets[p as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Host metadata for a page.
    #[inline]
    pub fn host_of(&self, p: PageId) -> &HostMeta {
        // lint:allow(no-panic-transitive): PageId and HostId are dense indices bounded by the space's construction
        &self.hosts[self.pages[p as usize].host as usize]
    }

    /// Numeric host id of a page — the sharding key for host-partitioned
    /// frontiers, stable across runs because host assignment is part of
    /// the generated space.
    #[inline]
    pub fn host_id(&self, p: PageId) -> u32 {
        self.pages[p as usize].host
    }

    /// All hosts.
    pub fn hosts(&self) -> &[HostMeta] {
        &self.hosts
    }

    /// The crawl's seed pages.
    pub fn seeds(&self) -> &[PageId] {
        &self.seeds
    }

    /// The language this space was generated for.
    pub fn target_language(&self) -> Language {
        self.target
    }

    /// The generator seed (content synthesis derives per-page streams
    /// from it).
    pub fn generation_seed(&self) -> u64 {
        self.gen_seed
    }

    /// The fault-model knobs this space was generated with. All-zero by
    /// default; [`crate::FaultModel::new`] realizes them into per-host
    /// classes and per-(page, attempt) draws.
    pub fn fault(&self) -> &FaultConfig {
        &self.fault
    }

    /// Ground truth: is this page relevant (an OK HTML page in the
    /// target language)? This is what the *metrics* use; strategies only
    /// ever see classifier verdicts.
    #[inline]
    pub fn is_relevant(&self, p: PageId) -> bool {
        // lint:allow(no-panic-transitive): PageId and HostId are dense indices bounded by the space's construction
        let m = &self.pages[p as usize];
        m.is_ok_html() && m.lang == Some(self.target)
    }

    /// Count of relevant pages — the denominator of coverage (the paper's
    /// "explicit recall", §3.4: computable because the trace is finite).
    pub fn total_relevant(&self) -> usize {
        (0..self.num_pages() as PageId)
            .filter(|&p| self.is_relevant(p))
            .count()
    }

    /// Count of OK HTML pages (Table 3's "Total HTML pages").
    pub fn total_ok_html(&self) -> usize {
        self.pages.iter().filter(|m| m.is_ok_html()).count()
    }

    /// The URL of a page, derived from host name and page position.
    /// Page 0 of a host is its front page `/`; others get stable
    /// directory-style paths.
    pub fn url(&self, p: PageId) -> String {
        let mut url = Vec::new();
        self.write_url(p, &mut url);
        String::from_utf8(url).expect("a URL is a host name and ASCII")
    }

    /// Append the URL of `p` to `out`: [`Self::url`] without its
    /// allocation, for page synthesis.
    pub(crate) fn write_url(&self, p: PageId, out: &mut Vec<u8>) {
        use std::io::Write;
        let m = &self.pages[p as usize];
        let host = &self.hosts[m.host as usize];
        let idx = p - host.first_page;
        out.extend_from_slice(b"http://");
        out.extend_from_slice(host.name.as_bytes());
        out.push(b'/');
        if idx == 0 {
            return;
        }
        // Writing into a `Vec` cannot fail.
        let _ = match m.kind {
            PageKind::Html => write!(out, "d{}/p{idx}.html", idx % 17),
            PageKind::Other => write!(out, "img/i{idx}.gif"),
            PageKind::Failed => write!(out, "gone/g{idx}.html"),
        };
    }

    /// Iterate over all page ids.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        0..self.pages.len() as PageId
    }

    /// FNV-1a digest of the complete space — every page field, host,
    /// edge, offset and seed folds in, so two spaces hash equal iff they
    /// are bit-identical (up to hash collision). The parity tests use it
    /// to prove the parallel generator is thread-count-independent.
    ///
    /// Not a stable on-disk format: the digest may change between
    /// versions as fields are added. Compare hashes only within one
    /// build.
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        fold(self.pages.len() as u64);
        for m in &self.pages {
            fold(m.host as u64);
            fold(m.kind as u64);
            fold(m.status as u64);
            fold(m.true_charset as u64);
            fold(m.labeled_charset.map_or(u64::MAX, |c| c as u64));
            fold(m.size as u64);
            fold(m.lang.map_or(u64::MAX, |l| l as u64));
            fold(m.island_depth as u64);
        }
        fold(self.offsets.len() as u64);
        for &o in &self.offsets {
            fold(o as u64);
        }
        fold(self.edges.len() as u64);
        for &e in &self.edges {
            fold(e as u64);
        }
        fold(self.hosts.len() as u64);
        let fold_bytes = |bytes: &[u8]| {
            let mut acc = OFFSET;
            for &b in bytes {
                acc = (acc ^ b as u64).wrapping_mul(PRIME);
            }
            acc
        };
        let mut host_acc = Vec::with_capacity(self.hosts.len());
        for host in &self.hosts {
            host_acc.push((
                fold_bytes(host.name.as_bytes()),
                host.language as u64,
                host.first_page as u64,
                host.page_count as u64,
                host.island as u64,
            ));
        }
        for (name_h, lang, first, count, island) in host_acc {
            fold(name_h);
            fold(lang);
            fold(first);
            fold(count);
            fold(island);
        }
        fold(self.seeds.len() as u64);
        for &s in &self.seeds {
            fold(s as u64);
        }
        fold(self.target as u64);
        fold(self.gen_seed);
        fold(self.fault.fingerprint());
        h
    }

    /// Cheap identity fingerprint: FNV-1a over the space's *defining*
    /// inputs and shape (generation seed, page/host/edge counts, target
    /// language, fault knobs, seed list) — O(seeds), not O(pages).
    /// Because generation is a pure function of (generator config,
    /// seed), two spaces that agree on this fingerprint and were built
    /// by the same code are the same space. Crawl snapshots record it
    /// instead of the space itself and verify it on resume.
    ///
    /// Like [`WebSpace::content_hash`] this is not a stable on-disk
    /// contract across versions; snapshot files carry a format version
    /// for that.
    pub fn identity_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        fold(self.gen_seed);
        fold(self.pages.len() as u64);
        fold(self.hosts.len() as u64);
        fold(self.edges.len() as u64);
        fold(self.target as u64);
        fold(self.fault.fingerprint());
        fold(self.seeds.len() as u64);
        for &s in &self.seeds {
            fold(s as u64);
        }
        h
    }

    /// Structural integrity check, used by tests and after log replay:
    /// CSR well-formedness, edge targets in range, hosts contiguous,
    /// seeds valid, non-HTML pages link-free.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.offsets.len() != self.pages.len() + 1 {
            return Err("offsets length mismatch".into());
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() as usize != self.edges.len() {
            return Err("offset endpoints wrong".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        let n = self.pages.len() as u32;
        if let Some(&bad) = self.edges.iter().find(|&&t| t >= n) {
            return Err(format!("edge target {bad} out of range"));
        }
        for (i, h) in self.hosts.iter().enumerate() {
            let end = h.first_page as u64 + h.page_count as u64;
            if end > n as u64 {
                return Err(format!("host {i} extends past page table"));
            }
            for p in h.first_page..h.first_page + h.page_count {
                if self.pages[p as usize].host as usize != i {
                    return Err(format!("page {p} host field inconsistent"));
                }
            }
        }
        for &s in &self.seeds {
            if s >= n {
                return Err(format!("seed {s} out of range"));
            }
            if !self.pages[s as usize].is_ok_html() {
                return Err(format!("seed {s} is not an OK HTML page"));
            }
        }
        for p in 0..n {
            let m = &self.pages[p as usize];
            if m.kind != PageKind::Html && !self.outlinks(p).is_empty() {
                return Err(format!("non-HTML page {p} has outlinks"));
            }
            if m.kind == PageKind::Html && m.status == HttpStatus::Ok && m.lang.is_none() {
                return Err(format!("OK HTML page {p} lacks a ground-truth language"));
            }
        }
        Ok(())
    }
}
