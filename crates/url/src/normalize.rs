//! URL canonicalization for deduplication.
//!
//! A crawler's visited-set only works if every spelling of the same
//! resource maps to one key. The canonical form applied here combines RFC
//! 3986 §6.2.2 syntax-based normalization with the scheme-based rules every
//! production crawler uses:
//!
//! 1. lowercase scheme and host (done at parse time);
//! 2. remove the port when it equals the scheme default;
//! 3. remove dot-segments from the path;
//! 4. decode percent-escapes of unreserved characters (`%7E` → `~`), and
//!    uppercase the hex digits of escapes that must remain;
//! 5. drop a trailing `index.html` / `index.htm` path segment (directory
//!    and index URL serve the same bytes on the vast majority of servers —
//!    the heuristic the paper-era crawlers applied to their logs);
//! 6. drop an empty query (`http://h/p?` → `http://h/p`).

use crate::parse::Url;
use crate::resolve::remove_dot_segments;

/// Names treated as directory-index files and stripped from path ends.
const INDEX_NAMES: [&str; 2] = ["index.html", "index.htm"];

/// Return the canonical string form of a URL. Two URLs identify the same
/// resource under our model iff their `normalize` outputs are equal.
///
/// ```
/// use langcrawl_url::{Url, normalize};
/// let u = Url::parse("HTTP://Ex.TH:80/a/../b/index.html?").unwrap();
/// assert_eq!(normalize(&u), "http://ex.th/b/");
/// ```
pub fn normalize(url: &Url) -> String {
    let mut out = String::with_capacity(url.host.len() + url.path.len() + 16);
    out.push_str(url.scheme.as_str());
    out.push_str("://");
    out.push_str(&url.host);
    if !url.has_default_port() {
        out.push(':');
        out.push_str(itoa(url.port.expect("non-default implies explicit")).as_str());
    }
    let mut path = remove_dot_segments(&url.path);
    path = decode_unreserved(&path);
    for idx in INDEX_NAMES {
        if let Some(stripped) = path.strip_suffix(idx) {
            if stripped.ends_with('/') {
                path = stripped.to_string();
                break;
            }
        }
    }
    out.push_str(&path);
    if let Some(q) = &url.query {
        if !q.is_empty() {
            out.push('?');
            out.push_str(&decode_unreserved(q));
        }
    }
    out
}

fn itoa(n: u16) -> String {
    n.to_string()
}

/// Decode `%XX` escapes of unreserved characters; uppercase the hex of all
/// other escapes; leave malformed escapes untouched (they are data).
fn decode_unreserved(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() + 1 && i + 2 < bytes.len() + 1 {
            if let (Some(h), Some(l)) = (
                bytes.get(i + 1).copied().and_then(hexval),
                bytes.get(i + 2).copied().and_then(hexval),
            ) {
                let v = (h << 4) | l;
                if is_unreserved(v) {
                    out.push(v as char);
                } else {
                    out.push('%');
                    out.push(to_hex_upper(h));
                    out.push(to_hex_upper(l));
                }
                i += 3;
                continue;
            }
        }
        // Plain byte (UTF-8 continuation bytes pass through untouched).
        let ch_len = utf8_len(bytes[i]);
        let end = (i + ch_len).min(bytes.len());
        out.push_str(&s[i..end]);
        i = end;
    }
    out
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

fn hexval(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn to_hex_upper(v: u8) -> char {
    char::from_digit(v as u32, 16)
        .expect("nibble")
        .to_ascii_uppercase()
}

fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Url;

    fn norm(s: &str) -> String {
        normalize(&Url::parse(s).unwrap())
    }

    #[test]
    fn default_port_removed() {
        assert_eq!(norm("http://h:80/p"), "http://h/p");
        assert_eq!(norm("https://h:443/p"), "https://h/p");
        assert_eq!(norm("http://h:8080/p"), "http://h:8080/p");
    }

    #[test]
    fn dot_segments_removed() {
        assert_eq!(norm("http://h/a/./b/../c"), "http://h/a/c");
    }

    #[test]
    fn unreserved_escapes_decoded() {
        assert_eq!(norm("http://h/%7Euser/%41"), "http://h/~user/A");
    }

    #[test]
    fn reserved_escapes_kept_uppercased() {
        assert_eq!(norm("http://h/a%2fb"), "http://h/a%2Fb");
        assert_eq!(norm("http://h/p?x=%3d"), "http://h/p?x=%3D");
    }

    #[test]
    fn malformed_escape_untouched() {
        assert_eq!(norm("http://h/a%zzb%4"), "http://h/a%zzb%4");
    }

    #[test]
    fn index_html_stripped() {
        assert_eq!(norm("http://h/dir/index.html"), "http://h/dir/");
        assert_eq!(norm("http://h/index.htm"), "http://h/");
        // Not stripped when it is not a whole segment.
        assert_eq!(norm("http://h/xindex.html"), "http://h/xindex.html");
    }

    #[test]
    fn empty_query_dropped() {
        assert_eq!(norm("http://h/p?"), "http://h/p");
        assert_eq!(norm("http://h/p?a=1"), "http://h/p?a=1");
    }

    #[test]
    fn equivalent_spellings_collapse() {
        let variants = [
            "HTTP://Example.TH:80/a/./b/%7Euser/index.html",
            "http://example.th/a/b/~user/",
            "http://EXAMPLE.th/a/x/../b/%7euser/index.html?",
        ];
        let first = norm(variants[0]);
        for v in &variants[1..] {
            assert_eq!(norm(v), first, "{v}");
        }
    }

    #[test]
    fn normalize_idempotent() {
        for s in [
            "http://h:80/a/../b/index.html?",
            "https://x.jp/%7E%2F?q=%3D",
            "http://h/",
        ] {
            let once = norm(s);
            assert_eq!(normalize(&Url::parse(&once).unwrap()), once, "{s}");
        }
    }
}
