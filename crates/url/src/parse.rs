//! Absolute URL parsing.
//!
//! The grammar implemented here is the web-crawler subset of RFC 3986:
//!
//! ```text
//! url       = scheme "://" host [":" port] [path] ["?" query] ["#" fragment]
//! scheme    = "http" | "https"        (case-insensitive)
//! host      = reg-name                (letters, digits, '-', '.', '_')
//! path      = *( "/" segment )
//! ```
//!
//! Fragments are parsed but never stored: two URLs differing only in
//! fragment identify the same resource, so a crawler must treat them as
//! equal or it re-downloads pages and double-counts coverage.

use crate::error::ParseError;
use std::fmt;

/// URL scheme. Only the two schemes a web crawler fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// `http://`
    Http,
    /// `https://`
    Https,
}

impl Scheme {
    /// The default port for this scheme (80 / 443).
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// The scheme as it appears in a URL, lowercase, without `://`.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed absolute URL.
///
/// Components are stored as owned strings in their *as-parsed* form except
/// for the scheme and host, which are lowercased eagerly (their case never
/// carries meaning). Use [`crate::normalize`] to obtain the canonical form
/// used for deduplication.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// URL scheme.
    pub scheme: Scheme,
    /// Lowercased host (registered name).
    pub host: String,
    /// Explicit port if one was written, even if it equals the default.
    pub port: Option<u16>,
    /// Path beginning with `/`; `/` if the URL had no path.
    pub path: String,
    /// Query string without the leading `?`, if present.
    pub query: Option<String>,
}

impl Url {
    /// Parse an absolute URL.
    ///
    /// Leading/trailing ASCII whitespace is trimmed (hrefs in real HTML are
    /// frequently padded). Fragments are dropped. Errors are described by
    /// [`ParseError`].
    ///
    /// ```
    /// use langcrawl_url::Url;
    /// let u = Url::parse("https://WWW.Example.JP:8080/p?q=1#frag").unwrap();
    /// assert_eq!(u.host, "www.example.jp");
    /// assert_eq!(u.port, Some(8080));
    /// assert_eq!(u.path, "/p");
    /// assert_eq!(u.query.as_deref(), Some("q=1"));
    /// ```
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        let s = input.trim_matches(|c: char| c.is_ascii_whitespace());
        if s.is_empty() {
            return Err(ParseError::Empty);
        }
        if s.bytes().any(|b| b.is_ascii_control()) {
            return Err(ParseError::ControlChar);
        }
        let (scheme, rest) = split_scheme(s)?;
        let rest = rest.strip_prefix("//").ok_or(ParseError::NotAbsolute)?;

        // The authority ends at the first '/', '?', or '#'.
        let auth_end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
        let (authority, tail) = rest.split_at(auth_end);
        let (host, port) = split_host_port(authority)?;

        let (path, query) = split_path_query(tail);
        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
        })
    }

    /// The port that will actually be connected to: the explicit port if
    /// present, otherwise the scheme default.
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// True if the explicit port is redundant (equals the scheme default).
    pub fn has_default_port(&self) -> bool {
        self.port.is_none() || self.port == Some(self.scheme.default_port())
    }

    /// Host and effective port as a `host:port` pair — the unit of
    /// politeness in a real crawler (one connection queue per server).
    // lint:allow(test-only-pub): crates/url/tests/proptests.rs checks normalisation keeps the server
    pub fn server_key(&self) -> (String, u16) {
        (self.host.clone(), self.effective_port())
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

fn split_scheme(s: &str) -> Result<(Scheme, &str), ParseError> {
    let colon = s.find(':').ok_or(ParseError::UnsupportedScheme)?;
    let (scheme_str, rest) = s.split_at(colon);
    let scheme = if scheme_str.eq_ignore_ascii_case("http") {
        Scheme::Http
    } else if scheme_str.eq_ignore_ascii_case("https") {
        Scheme::Https
    } else {
        return Err(ParseError::UnsupportedScheme);
    };
    Ok((scheme, &rest[1..]))
}

fn split_host_port(authority: &str) -> Result<(String, Option<u16>), ParseError> {
    // Strip userinfo if present; crawlers never send credentials embedded
    // in links, but such links do occur in the wild.
    let hostport = match authority.rfind('@') {
        Some(i) => &authority[i + 1..],
        None => authority,
    };
    let (host_str, port) = match hostport.rfind(':') {
        Some(i) => {
            let (h, p) = hostport.split_at(i);
            let p = &p[1..];
            if p.is_empty() {
                // "http://host:/path" — tolerated, treated as no port.
                (h, None)
            } else {
                (
                    h,
                    Some(p.parse::<u16>().map_err(|_| ParseError::InvalidPort)?),
                )
            }
        }
        None => (hostport, None),
    };
    if host_str.is_empty() {
        return Err(ParseError::EmptyHost);
    }
    let mut host = String::with_capacity(host_str.len());
    for c in host_str.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_') {
            host.push(c.to_ascii_lowercase());
        } else {
            return Err(ParseError::InvalidHostChar(c));
        }
    }
    Ok((host, port))
}

fn split_path_query(tail: &str) -> (String, Option<String>) {
    // Drop the fragment first.
    let tail = match tail.find('#') {
        Some(i) => &tail[..i],
        None => tail,
    };
    let (path, query) = match tail.find('?') {
        Some(i) => (&tail[..i], Some(tail[i + 1..].to_string())),
        None => (tail, None),
    };
    let path = if path.is_empty() {
        "/".to_string()
    } else {
        path.to_string()
    };
    (path, query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal() {
        let u = Url::parse("http://a.th").unwrap();
        assert_eq!(u.scheme, Scheme::Http);
        assert_eq!(u.host, "a.th");
        assert_eq!(u.port, None);
        assert_eq!(u.path, "/");
        assert_eq!(u.query, None);
    }

    #[test]
    fn parses_full() {
        let u = Url::parse("https://user@Host.Example.JP:444/a/b?x=1&y=2#top").unwrap();
        assert_eq!(u.scheme, Scheme::Https);
        assert_eq!(u.host, "host.example.jp");
        assert_eq!(u.port, Some(444));
        assert_eq!(u.path, "/a/b");
        assert_eq!(u.query.as_deref(), Some("x=1&y=2"));
    }

    #[test]
    fn fragment_is_dropped() {
        let a = Url::parse("http://h/p#one").unwrap();
        let b = Url::parse("http://h/p#two").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scheme_case_insensitive() {
        assert_eq!(Url::parse("HtTpS://h/").unwrap().scheme, Scheme::Https);
    }

    #[test]
    fn rejects_non_web_schemes() {
        for bad in [
            "mailto:x@y",
            "ftp://h/",
            "javascript:void(0)",
            "file:///etc",
        ] {
            assert_eq!(
                Url::parse(bad).unwrap_err(),
                ParseError::UnsupportedScheme,
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_relative() {
        assert_eq!(
            Url::parse("http:relative").unwrap_err(),
            ParseError::NotAbsolute
        );
    }

    #[test]
    fn rejects_empty_and_controls() {
        assert_eq!(Url::parse("   ").unwrap_err(), ParseError::Empty);
        assert_eq!(
            Url::parse("http://h/\npath").unwrap_err(),
            ParseError::ControlChar
        );
    }

    #[test]
    fn rejects_bad_port_and_host() {
        assert_eq!(
            Url::parse("http://h:70000/").unwrap_err(),
            ParseError::InvalidPort
        );
        assert_eq!(
            Url::parse("http://h:abc/").unwrap_err(),
            ParseError::InvalidPort
        );
        assert_eq!(Url::parse("http:///p").unwrap_err(), ParseError::EmptyHost);
        assert!(matches!(
            Url::parse("http://ho st/").unwrap_err(),
            ParseError::InvalidHostChar(' ')
        ));
    }

    #[test]
    fn empty_trailing_port_tolerated() {
        let u = Url::parse("http://h:/p").unwrap();
        assert_eq!(u.port, None);
        assert_eq!(u.path, "/p");
    }

    #[test]
    fn query_without_path() {
        let u = Url::parse("http://h?q=1").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.query.as_deref(), Some("q=1"));
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "http://a.th/",
            "https://b.jp:8443/x/y?z=1",
            "http://c.com/path",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u, "{s}");
        }
    }

    #[test]
    fn effective_port_and_server_key() {
        let u = Url::parse("https://h.jp/x").unwrap();
        assert_eq!(u.effective_port(), 443);
        assert!(u.has_default_port());
        let v = Url::parse("https://h.jp:443/x").unwrap();
        assert!(v.has_default_port());
        assert_eq!(v.server_key(), ("h.jp".to_string(), 443));
    }

    #[test]
    fn whitespace_trimmed() {
        let u = Url::parse("  http://h/p \t").unwrap();
        assert_eq!(u.to_string(), "http://h/p");
    }
}
