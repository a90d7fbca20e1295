//! Host-name utilities: suffix extraction and registrable-domain grouping.
//!
//! National web-archiving crawls (the paper's motivating application) seed
//! and scope themselves by country-code TLD — `.th` for the Thai web,
//! `.jp` for the Japanese web — and real crawlers group URL queues by
//! *registrable domain* so one organisation's many hosts share politeness
//! budgets. This module provides both, with a compact built-in suffix list
//! covering the second-level structure of the ccTLDs the paper's datasets
//! come from.

/// Classification of a host name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostKind {
    /// Dotted-quad IPv4 literal.
    Ipv4,
    /// A registered DNS name.
    DnsName,
    /// Single label with no dot (intranet-style); crawlers usually skip.
    BareLabel,
}

/// Classify a (already lowercased) host string.
pub fn host_kind(host: &str) -> HostKind {
    if is_ipv4(host) {
        HostKind::Ipv4
    } else if host.contains('.') {
        HostKind::DnsName
    } else {
        HostKind::BareLabel
    }
}

fn is_ipv4(host: &str) -> bool {
    let mut parts = 0;
    for seg in host.split('.') {
        if seg.is_empty() || seg.len() > 3 || !seg.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        if seg.parse::<u16>().map_or(true, |v| v > 255) {
            return false;
        }
        parts += 1;
    }
    parts == 4
}

/// Second-level public suffixes under the ccTLDs relevant to the paper's
/// datasets, plus the generic TLD set. A full public-suffix list is ~10k
/// entries; crawl scoping only needs the registries under which the
/// generator mints hosts.
const TWO_LEVEL_SUFFIXES: &[&str] = &[
    // Thailand (THNIC registry structure as of the paper's era)
    "ac.th", "co.th", "go.th", "in.th", "mi.th", "net.th", "or.th",
    // Japan (JPRS organisational second levels)
    "ac.jp", "ad.jp", "co.jp", "ed.jp", "go.jp", "gr.jp", "lg.jp", "ne.jp", "or.jp",
    // Common elsewhere, so cross-language links normalize sensibly
    "co.uk", "org.uk", "ac.uk", "com.au", "net.au", "org.au", "co.kr", "or.kr", "com.cn", "net.cn",
    "org.cn", "com.tw", "org.tw",
];

/// Return the *public suffix* of a host: the longest known registry suffix
/// (`ac.th`, `co.jp`, …) or, failing that, the final label (`th`, `jp`,
/// `com`, …). Returns `None` for IP literals and bare labels.
///
/// ```
/// use langcrawl_url::host_suffix;
/// assert_eq!(host_suffix("www.chula.ac.th"), Some("ac.th"));
/// assert_eq!(host_suffix("example.com"), Some("com"));
/// assert_eq!(host_suffix("127.0.0.1"), None);
/// ```
pub fn host_suffix(host: &str) -> Option<&str> {
    if host_kind(host) != HostKind::DnsName {
        return None;
    }
    // Longest two-level suffix match first.
    for suf in TWO_LEVEL_SUFFIXES {
        if let Some(prefix) = host.strip_suffix(suf) {
            if prefix.ends_with('.') && prefix.len() > 1 {
                return Some(&host[host.len() - suf.len()..]);
            }
        }
    }
    host.rfind('.')
        .map(|i| &host[i + 1..])
        .filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_hosts() {
        assert_eq!(host_kind("10.0.0.1"), HostKind::Ipv4);
        assert_eq!(host_kind("a.b.th"), HostKind::DnsName);
        assert_eq!(host_kind("localhost"), HostKind::BareLabel);
        // Not quite IPv4 literals:
        assert_eq!(host_kind("10.0.0.256"), HostKind::DnsName);
        assert_eq!(host_kind("10.0.0"), HostKind::DnsName);
        assert_eq!(host_kind("10.0.0.1.2"), HostKind::DnsName);
    }

    #[test]
    fn suffix_two_level() {
        assert_eq!(host_suffix("www.mcot.net.th"), Some("net.th"));
        assert_eq!(host_suffix("www.u-tokyo.ac.jp"), Some("ac.jp"));
        assert_eq!(host_suffix("server.go.th"), Some("go.th"));
    }

    #[test]
    fn suffix_one_level_fallback() {
        assert_eq!(host_suffix("www.sanook.th"), Some("th"));
        assert_eq!(host_suffix("example.org"), Some("org"));
    }

    #[test]
    fn suffix_none_for_non_dns() {
        assert_eq!(host_suffix("192.168.1.1"), None);
        assert_eq!(host_suffix("intranet"), None);
    }

    #[test]
    fn suffix_requires_leading_label() {
        // ".ac.th" style degenerate host — suffix match must not fire on
        // the whole host without a preceding label.
        assert_eq!(host_suffix("ac.th"), Some("th"));
    }
}
