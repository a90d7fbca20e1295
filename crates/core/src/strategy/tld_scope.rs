//! ccTLD-scoped crawling — the *other* way nations archived their webs.
//!
//! The paper's introduction frames language-specific crawling as the data
//! -acquisition method for national web archives. The historical
//! alternative (Kulturarw3, PANDORA, early national libraries) was
//! *domain scoping*: crawl everything under the country's ccTLD and
//! nothing else. This strategy implements that policy so the
//! `ablation_tld` harness can quantify the trade the paper's approach
//! wins:
//!
//! * TLD scoping **misses** in-language content hosted abroad (the
//!   generator's "leak" pages — Thai sites on `.com`), and everything
//!   reachable only *through* foreign gateways (the island structure);
//! * TLD scoping **wastes** fetches on out-of-language content under the
//!   ccTLD (English tourism sites on `.th`);
//! * but it needs **no classifier at all** — scope is decided from the
//!   URL alone, before fetching, which no content-based strategy can do.

use super::{PageView, Strategy};
use crate::queue::Entry;
use langcrawl_url::host_suffix;
use langcrawl_webgraph::WebSpace;

/// Crawl only URLs whose host falls under one of the given suffixes.
#[derive(Debug)]
pub struct TldScope {
    /// One flag per host of the web space: in scope?
    in_scope: Vec<bool>,
    suffixes: Vec<String>,
}

impl TldScope {
    /// Scope the crawl to hosts under the given public suffixes
    /// (`["th"]` admits `*.th` including `*.ac.th` etc.).
    pub fn new(ws: &WebSpace, suffixes: &[&str]) -> Self {
        let suffixes: Vec<String> = suffixes.iter().map(|s| s.to_lowercase()).collect();
        let in_scope = ws
            .hosts()
            .iter()
            .map(|h| {
                // A host is in scope when its public suffix is one of the
                // targets or ends with ".<target>" (ac.th under th).
                match host_suffix(&h.name) {
                    Some(suf) => suffixes
                        .iter()
                        .any(|t| suf == t || suf.ends_with(&format!(".{t}"))),
                    None => false,
                }
            })
            .collect();
        TldScope { in_scope, suffixes }
    }

    /// Is a host in scope?
    pub fn host_in_scope(&self, host: u32) -> bool {
        self.in_scope[host as usize]
    }
}

/// The strategy needs per-target host lookup, so it carries a clone of
/// the page→host mapping: constructed per web space like
/// [`super::ContextGraphStrategy`].
#[derive(Debug)]
pub struct TldScopeStrategy {
    scope: TldScope,
    page_host: Vec<u32>,
}

impl TldScopeStrategy {
    /// Build the scoped strategy for a web space.
    pub fn new(ws: &WebSpace, suffixes: &[&str]) -> Self {
        TldScopeStrategy {
            scope: TldScope::new(ws, suffixes),
            page_host: ws.page_ids().map(|p| ws.meta(p).host).collect(),
        }
    }
}

impl Strategy for TldScopeStrategy {
    fn name(&self) -> String {
        format!("tld-scope .{}", self.scope.suffixes.join("/."))
    }

    fn levels(&self) -> usize {
        1
    }

    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>) {
        // Scope is a property of the URL, not the referrer: admit every
        // in-scope link regardless of page relevance (no classifier).
        for &t in view.outlinks {
            if self.scope.host_in_scope(self.page_host[t as usize]) {
                out.push(Entry {
                    page: t,
                    priority: 0,
                    distance: 0,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TldScope {
        /// Number of in-scope hosts.
        fn hosts_in_scope(&self) -> usize {
            self.in_scope.iter().filter(|&&b| b).count()
        }
    }

    impl TldScopeStrategy {
        /// The strategy's scope.
        fn scope(&self) -> &TldScope {
            &self.scope
        }
    }
    use langcrawl_charset::Language;
    use langcrawl_webgraph::GeneratorConfig;

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(5_000).build(19)
    }

    #[test]
    fn scope_matches_host_names() {
        let ws = space();
        let s = TldScope::new(&ws, &["th"]);
        for (i, h) in ws.hosts().iter().enumerate() {
            let expect = h.name.ends_with(".th");
            assert_eq!(s.host_in_scope(i as u32), expect, "{}", h.name);
        }
        assert!(s.hosts_in_scope() > 0);
        assert!(s.hosts_in_scope() < ws.num_hosts());
    }

    #[test]
    fn scope_correlates_with_language_but_not_perfectly() {
        // In the generator every Thai host gets a .th name, so scope ⊇
        // Thai hosts; foreign hosts are out of scope.
        let ws = space();
        let s = TldScope::new(&ws, &["th"]);
        for (i, h) in ws.hosts().iter().enumerate() {
            if h.language == Language::Thai {
                assert!(s.host_in_scope(i as u32), "{}", h.name);
            } else {
                assert!(!s.host_in_scope(i as u32), "{}", h.name);
            }
        }
    }

    #[test]
    fn admits_only_in_scope_links() {
        let ws = space();
        let mut strat = TldScopeStrategy::new(&ws, &["th"]);
        // Find a page with both in- and out-of-scope outlinks.
        for p in ws.page_ids() {
            let outs = ws.outlinks(p);
            if outs.is_empty() {
                continue;
            }
            let view = PageView {
                page: p,
                relevance: 0.0, // ignored: scope needs no classifier
                consec_irrelevant: 1,
                outlinks: outs,
                crawled: 1,
            };
            let mut out = Vec::new();
            strat.admit(&view, &mut out);
            for e in &out {
                assert!(strat.scope().host_in_scope(ws.meta(e.page).host));
            }
            let in_scope_count = outs
                .iter()
                .filter(|&&t| strat.scope().host_in_scope(ws.meta(t).host))
                .count();
            assert_eq!(out.len(), in_scope_count);
        }
    }

    #[test]
    fn multi_suffix_scope() {
        let ws = space();
        let s = TldScope::new(&ws, &["th", "jp"]);
        let th_only = TldScope::new(&ws, &["th"]);
        assert!(s.hosts_in_scope() >= th_only.hosts_in_scope());
    }
}
