//! Relative-reference resolution (RFC 3986 §5).
//!
//! Link extraction produces mostly relative references (`../a`, `b.html`,
//! `/c`, `?q`, `//host/p`), so resolution quality directly controls which
//! URLs ever enter the crawler's queue. The algorithm below is the RFC 3986
//! §5.3 "transform references" pseudo-code, restricted to the `http(s)`
//! URLs that [`crate::Url`] represents.

use crate::error::ParseError;
use crate::parse::Url;

/// Resolve a reference against a base URL.
///
/// Handles absolute URLs, protocol-relative (`//host/p`), absolute-path
/// (`/p`), relative-path (`p`, `../p`, `./p`), query-only (`?q`) and
/// fragment-only (`#f`) references.
///
/// ```
/// use langcrawl_url::{Url, resolve};
/// let base = Url::parse("http://h.jp/a/b/c.html?old=1").unwrap();
/// assert_eq!(resolve(&base, "d.html").unwrap().to_string(), "http://h.jp/a/b/d.html");
/// assert_eq!(resolve(&base, "../x").unwrap().to_string(), "http://h.jp/a/x");
/// assert_eq!(resolve(&base, "/root").unwrap().to_string(), "http://h.jp/root");
/// assert_eq!(resolve(&base, "?q=2").unwrap().to_string(), "http://h.jp/a/b/c.html?q=2");
/// assert_eq!(resolve(&base, "#sec").unwrap().to_string(), base.to_string());
/// ```
pub fn resolve(base: &Url, reference: &str) -> Result<Url, ParseError> {
    let r = reference.trim_matches(|c: char| c.is_ascii_whitespace());
    if r.bytes().any(|b| b.is_ascii_control()) {
        return Err(ParseError::ControlChar);
    }
    if r.is_empty() || r.starts_with('#') {
        // Same document. Fragment is dropped by our model anyway; the path
        // still gets dot-segment removal so resolution output is uniform.
        let mut u = base.clone();
        u.path = remove_dot_segments(&u.path);
        return Ok(u);
    }
    // Absolute URL?  (scheme ":" ...)
    if let Some(colon) = r.find(':') {
        let (maybe_scheme, _) = r.split_at(colon);
        if !maybe_scheme.is_empty()
            && maybe_scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
            && maybe_scheme
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
        {
            // It names a scheme: either a web URL or something to reject.
            return Url::parse(r);
        }
    }
    // Protocol-relative reference: inherit the base scheme.
    if let Some(rest) = r.strip_prefix("//") {
        return Url::parse(&format!("{}://{}", base.scheme, rest));
    }
    // From here the reference is a path / query expression.
    let (refpath, query) = split_ref(r);
    let merged = if refpath.is_empty() {
        // Query-only reference keeps the base path.
        base.path.clone()
    } else if refpath.starts_with('/') {
        refpath.to_string()
    } else {
        merge_paths(&base.path, refpath)
    };
    Ok(Url {
        scheme: base.scheme,
        host: base.host.clone(),
        port: base.port,
        path: remove_dot_segments(&merged),
        query,
    })
}

fn split_ref(r: &str) -> (&str, Option<String>) {
    let r = match r.find('#') {
        Some(i) => &r[..i],
        None => r,
    };
    match r.find('?') {
        Some(i) => (&r[..i], Some(r[i + 1..].to_string())),
        None => (r, None),
    }
}

/// RFC 3986 §5.3 "merge": replace the last segment of the base path with
/// the reference path.
fn merge_paths(base_path: &str, refpath: &str) -> String {
    match base_path.rfind('/') {
        Some(i) => format!("{}{}", &base_path[..=i], refpath),
        None => format!("/{refpath}"),
    }
}

/// RFC 3986 §5.2.4 remove_dot_segments, operating on a path that begins
/// with `/` (or is relative, in which case a leading `/` is assumed by the
/// caller). `.` and `..` segments are interpreted; `..` never escapes the
/// root.
///
/// ```
/// use langcrawl_url::remove_dot_segments;
/// assert_eq!(remove_dot_segments("/a/b/../c/./d"), "/a/c/d");
/// assert_eq!(remove_dot_segments("/../../x"), "/x");
/// assert_eq!(remove_dot_segments("/a/b/.."), "/a/");
/// ```
pub fn remove_dot_segments(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    let trailing_slash = path.ends_with('/') || path.ends_with("/.") || path.ends_with("/..");
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            s => out.push(s),
        }
    }
    let mut result = String::with_capacity(path.len());
    for seg in &out {
        result.push('/');
        result.push_str(seg);
    }
    if result.is_empty() || trailing_slash {
        result.push('/');
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Url {
        Url::parse("http://a/b/c/d;p?q").unwrap()
    }

    /// RFC 3986 §5.4.1 normal examples (those expressible in our model).
    #[test]
    fn rfc3986_normal_examples() {
        let cases = [
            ("g", "http://a/b/c/g"),
            ("./g", "http://a/b/c/g"),
            ("g/", "http://a/b/c/g/"),
            ("/g", "http://a/g"),
            ("//g", "http://g/"),
            ("?y", "http://a/b/c/d;p?y"),
            ("g?y", "http://a/b/c/g?y"),
            (";x", "http://a/b/c/;x"),
            ("g;x", "http://a/b/c/g;x"),
            ("", "http://a/b/c/d;p?q"),
            (".", "http://a/b/c/"),
            ("./", "http://a/b/c/"),
            ("..", "http://a/b/"),
            ("../", "http://a/b/"),
            ("../g", "http://a/b/g"),
            ("../..", "http://a/"),
            ("../../", "http://a/"),
            ("../../g", "http://a/g"),
        ];
        for (r, expect) in cases {
            assert_eq!(
                resolve(&base(), r).unwrap().to_string(),
                expect,
                "ref {r:?}"
            );
        }
    }

    /// RFC 3986 §5.4.2 abnormal examples.
    #[test]
    fn rfc3986_abnormal_examples() {
        let cases = [
            ("../../../g", "http://a/g"),
            ("../../../../g", "http://a/g"),
            ("/./g", "http://a/g"),
            ("/../g", "http://a/g"),
            ("g.", "http://a/b/c/g."),
            (".g", "http://a/b/c/.g"),
            ("g..", "http://a/b/c/g.."),
            ("..g", "http://a/b/c/..g"),
            ("./../g", "http://a/b/g"),
            ("./g/.", "http://a/b/c/g/"),
            ("g/./h", "http://a/b/c/g/h"),
            ("g/../h", "http://a/b/c/h"),
        ];
        for (r, expect) in cases {
            assert_eq!(
                resolve(&base(), r).unwrap().to_string(),
                expect,
                "ref {r:?}"
            );
        }
    }

    #[test]
    fn absolute_reference_wins() {
        let u = resolve(&base(), "https://other.jp/x").unwrap();
        assert_eq!(u.to_string(), "https://other.jp/x");
    }

    #[test]
    fn non_web_absolute_reference_rejected() {
        assert!(resolve(&base(), "mailto:x@y.z").is_err());
        assert!(resolve(&base(), "javascript:alert(1)").is_err());
    }

    #[test]
    fn fragment_only_keeps_base() {
        assert_eq!(resolve(&base(), "#top").unwrap(), base());
    }

    #[test]
    fn protocol_relative_inherits_scheme() {
        let b = Url::parse("https://a.jp/p").unwrap();
        let u = resolve(&b, "//b.th/q").unwrap();
        assert_eq!(u.to_string(), "https://b.th/q");
    }

    #[test]
    fn colon_in_first_segment_is_not_a_scheme() {
        // "a:b" with a digit-leading prefix or slash before colon is a path.
        let u = resolve(&base(), "seg/x:y").unwrap();
        assert_eq!(u.to_string(), "http://a/b/c/seg/x:y");
    }

    #[test]
    fn dotdot_never_escapes_root() {
        assert_eq!(remove_dot_segments("/../../.."), "/");
    }

    #[test]
    fn resolving_absolute_against_base_is_identity() {
        let abs = "http://z.example.th/p/q?x=1";
        assert_eq!(resolve(&base(), abs).unwrap(), Url::parse(abs).unwrap());
    }
}
