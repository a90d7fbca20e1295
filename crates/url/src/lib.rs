//! # langcrawl-url — URL handling substrate for the crawling simulator
//!
//! A small, dependency-free URL library covering exactly what a web crawler
//! needs: parsing absolute `http`/`https` URLs, resolving relative
//! references against a base (RFC 3986 §5), and canonicalizing URLs so that
//! the crawler's visited-set and queue deduplicate correctly.
//!
//! This is a substrate crate for the reproduction of *"Simulation Study of
//! Language Specific Web Crawling"* (Somboonviwat et al., 2005). The paper's
//! simulator replays crawl logs keyed by URL; the generator in
//! `langcrawl-webgraph` mints syntactically realistic URLs, and the HTML link
//! extractor in `langcrawl-html` resolves relative hrefs through this crate.
//!
//! ## Quick example
//!
//! ```
//! use langcrawl_url::{Url, resolve, normalize};
//!
//! let base = Url::parse("http://www.example.ac.th/dir/index.html").unwrap();
//! let joined = resolve(&base, "../img/logo.gif").unwrap();
//! assert_eq!(joined.to_string(), "http://www.example.ac.th/img/logo.gif");
//!
//! // Normalization makes equivalent spellings compare equal.
//! let a = normalize(&Url::parse("HTTP://Example.AC.TH:80/a/./b/%7Euser").unwrap());
//! let b = normalize(&Url::parse("http://example.ac.th/a/b/~user").unwrap());
//! assert_eq!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod host;
mod normalize;
mod parse;
mod resolve;

pub use error::ParseError;
pub use host::{host_kind, host_suffix, HostKind};
pub use normalize::normalize;
pub use parse::{Scheme, Url};
pub use resolve::{remove_dot_segments, resolve};
