//! The six lexical lint passes: D1 wall-clock, D2 unordered-iter, D3
//! rng-stream, D4 event-bits, S1 safety-comment, P1 no-panic.
//!
//! Every pass works on the lexed token stream of one file (plus, for
//! D3, a workspace-wide constant registry built first), so a pass can
//! never be fooled by a pattern inside a string literal or a comment.
//! The passes are deliberately *lexical*: they know token shapes, not
//! types. That keeps the linter dependency-free and fast, at the cost
//! of heuristics — which is why every lint honors
//! `// lint:allow(<id>): <reason>` suppressions (see [`crate`] docs).

use crate::findings::Finding;
use crate::lexer::{eval_const_expr, Lexed, Tok, TokKind};

/// D1 — wall-clock reads outside the benchmark code.
pub const WALL_CLOCK: &str = "wall-clock";
/// D2 — iteration over unordered hash containers.
pub const UNORDERED_ITER: &str = "unordered-iter";
/// D3 — RNG stream-domain registry violations.
pub const RNG_STREAM: &str = "rng-stream";
/// D4 — event interest-bit registry violations.
pub const EVENT_BITS: &str = "event-bits";
/// S1 — `unsafe` without a `// SAFETY:` comment.
pub const SAFETY_COMMENT: &str = "safety-comment";
/// P1 — panicking calls in the crawl/generation hot paths.
pub const NO_PANIC: &str = "no-panic";
/// P1T — a panic site transitively reachable from a
/// `lint:root(panic-free)` function.
pub const NO_PANIC_TRANSITIVE: &str = "no-panic-transitive";
/// P2T — an allocation site transitively reachable from a
/// `lint:root(alloc-free)` function.
pub const NO_ALLOC_TRANSITIVE: &str = "no-alloc-transitive";
/// A `pub` fn of a library crate that no non-test code calls or names.
pub const TEST_ONLY_PUB: &str = "test-only-pub";
/// Meta-lint: a malformed or unknown `lint:allow` suppression.
pub const BAD_ALLOW: &str = "bad-allow";
/// Meta-lint: a `lint:root(...)` marker that does not resolve to
/// exactly one indexed function. Deliberately *not* suppressible — a
/// typo'd root silently shrinks the proved surface.
pub const BAD_ROOT: &str = "bad-root";

/// The ids a `lint:allow(...)` may name.
pub const SUPPRESSIBLE: &[&str] = &[
    WALL_CLOCK,
    UNORDERED_ITER,
    RNG_STREAM,
    EVENT_BITS,
    SAFETY_COMMENT,
    NO_PANIC,
    NO_PANIC_TRANSITIVE,
    NO_ALLOC_TRANSITIVE,
    TEST_ONLY_PUB,
];

/// Does a `lint:allow(<allow_id>)` suppress a finding of `lint`? The
/// transitive panic pass aliases its lexical ancestor so an existing
/// `allow(no-panic)` on a site keeps covering the same hazard when the
/// closure reaches it.
pub fn allow_covers(allow_id: &str, lint: &str) -> bool {
    allow_id == lint || (allow_id == NO_PANIC && lint == NO_PANIC_TRANSITIVE)
}

/// One lexed source file with its scan-relevant classification.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the scan root, `/`-separated.
    pub rel: String,
    /// Token + comment streams.
    pub lexed: Lexed,
    /// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Whole file is test code (`tests/`, `benches/` directories).
    pub is_test_file: bool,
}

impl SourceFile {
    /// Build the per-file context from a path and source text.
    pub fn new(rel: String, src: &str) -> SourceFile {
        let lexed = crate::lexer::lex(src);
        let test_regions = test_regions(&lexed.tokens);
        let is_test_file = rel.split('/').any(|seg| seg == "tests" || seg == "benches");
        SourceFile {
            rel,
            lexed,
            test_regions,
            is_test_file,
        }
    }

    /// True when source line `line` lies in test code.
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    fn finding(&self, lint: &'static str, tok: &Tok, message: String) -> Finding {
        Finding {
            lint,
            path: self.rel.clone(),
            line: tok.line,
            col: tok.col,
            message,
        }
    }
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items: the
/// attribute plus the brace-matched body of the item that follows.
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to its matching `]`.
        let start_line = toks[i].line;
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut attr: Vec<&Tok> = Vec::new();
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            attr.push(&toks[j]);
            j += 1;
        }
        let is_test_attr = match attr.first() {
            Some(t) if t.is_ident("test") => attr.len() == 1,
            Some(t) if t.is_ident("cfg") => attr.iter().any(|t| t.is_ident("test")),
            _ => false,
        };
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then brace-match the item body.
        let mut k = j + 1;
        while k < toks.len() && toks[k].is_punct("#") {
            let mut d = 0usize;
            k += 1; // consume '#'
            while k < toks.len() {
                if toks[k].is_punct("[") {
                    d += 1;
                } else if toks[k].is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        // Find the item's opening brace (fn/mod/impl body) or a `;`
        // (e.g. `mod tests;` — then the region is just the header).
        let mut open = None;
        while k < toks.len() {
            if toks[k].is_punct("{") {
                open = Some(k);
                break;
            }
            if toks[k].is_punct(";") {
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            regions.push((start_line, toks.get(k).map_or(start_line, |t| t.line)));
            i = k + 1;
            continue;
        };
        let mut d = 1usize;
        let mut m = open + 1;
        while m < toks.len() && d > 0 {
            if toks[m].is_punct("{") {
                d += 1;
            } else if toks[m].is_punct("}") {
                d -= 1;
            }
            m += 1;
        }
        let end_line = toks.get(m.saturating_sub(1)).map_or(start_line, |t| t.line);
        regions.push((start_line, end_line));
        i = m;
    }
    regions
}

// ---------------------------------------------------------------- D1 --

/// D1: `Instant::now()` / `SystemTime::now()` outside the benchmark
/// code (`crates/bench`, `perfbench`). Simulation code must advance in
/// simulated ticks — a wall-clock read in core/webgraph is a
/// determinism hazard by construction.
pub fn wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.is_test_file
        || file.rel.starts_with("crates/bench/")
        || file.rel.starts_with("perfbench/")
        || file.rel.starts_with("crates/lint/")
        || file.rel.split('/').any(|seg| seg == "examples")
    {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "Instant" && t.text != "SystemTime") {
            continue;
        }
        let reads_clock = toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"));
        if reads_clock && !file.in_test(t.line) {
            out.push(file.finding(
                WALL_CLOCK,
                t,
                format!(
                    "wall-clock read `{}::now()` outside crates/bench and perfbench — \
                     simulation code must use simulated ticks",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- D2 --

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Idents whose presence in the same statement proves the iteration's
/// order cannot leak: an explicit sort, or an order-insensitive
/// reduction.
const ORDER_SAFE: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "count",
    "len",
    "is_empty",
    "all",
    "any",
    "contains",
];

/// D2: iteration over a `HashMap`/`HashSet`. `RandomState` hashing makes
/// the order differ run-to-run, so any iteration whose order can reach
/// an output (CSV, log, hash, event sink, priority) is a reproducibility
/// bug. A site is accepted when the same statement sorts or reduces
/// order-insensitively, when the collected result is sorted by the next
/// statement, or when it carries an allow.
pub fn unordered_iter(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.is_test_file {
        return;
    }
    let toks = &file.lexed.tokens;
    let names = hash_typed_names(toks);
    if names.is_empty() {
        return;
    }

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !names.contains(&t.text) || file.in_test(t.line) {
            continue;
        }
        // `name.iter()`-shaped site.
        let method_site = toks.get(i + 1).is_some_and(|p| p.is_punct("."))
            && toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && toks.get(i + 3).is_some_and(|p| p.is_punct("("));
        if method_site && !statement_is_order_safe(toks, i) {
            out.push(file.finding(
                UNORDERED_ITER,
                t,
                format!(
                    "iteration over unordered hash container `{}` (`.{}()`) — sort the \
                     keys first, use an indexed/BTree collection, or justify with \
                     lint:allow(unordered-iter)",
                    t.text,
                    toks[i + 2].text
                ),
            ));
        }
        // `for pat in &name {`-shaped site: `t` is the loop source if it
        // is directly followed by the loop body brace.
        if toks.get(i + 1).is_some_and(|n| n.is_punct("{")) && is_for_in_source(toks, i) {
            out.push(file.finding(
                UNORDERED_ITER,
                t,
                format!(
                    "`for` loop over unordered hash container `{}` — iterate a sorted \
                     Vec of keys instead, or justify with lint:allow(unordered-iter)",
                    t.text
                ),
            ));
        }
    }
}

/// Identifiers declared with a `HashMap`/`HashSet` type in this file:
/// `name: HashMap<...>` (binding, field or parameter) and
/// `let name = HashMap::new()/with_capacity(...)` forms.
fn hash_typed_names(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name : [&] [mut] [std::collections::] Hash{Map,Set}`
        if toks.get(i + 1).is_some_and(|p| p.is_punct(":")) {
            let mut j = i + 2;
            while toks.get(j).is_some_and(|t| {
                t.is_punct("&") || t.is_ident("mut") || t.kind == TokKind::Lifetime
            }) {
                j += 1;
            }
            while toks
                .get(j)
                .is_some_and(|t| t.is_ident("std") || t.is_ident("collections"))
                && toks.get(j + 1).is_some_and(|p| p.is_punct("::"))
            {
                j += 2;
            }
            if toks
                .get(j)
                .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
            {
                names.push(toks[i].text.clone());
            }
        }
        // `let [mut] name = ... Hash{Map,Set} :: ...`
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if !toks.get(j + 1).is_some_and(|p| p.is_punct("=")) {
                continue;
            }
            // A constructor call appears within a few tokens of the `=`.
            for k in (j + 2)..(j + 8).min(toks.len().saturating_sub(1)) {
                if toks[k].is_punct(";") {
                    break;
                }
                if (toks[k].is_ident("HashMap") || toks[k].is_ident("HashSet"))
                    && toks.get(k + 1).is_some_and(|p| p.is_punct("::"))
                {
                    names.push(name.text.clone());
                    break;
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Is token `i` the final identifier of a `for ... in [&][mut] [self.]x`
/// header? (Callers already checked `toks[i+1]` is the body `{`.)
fn is_for_in_source(toks: &[Tok], i: usize) -> bool {
    // Walk back over `self .` and `& mut` prefixes to the `in`.
    let mut j = i;
    if j >= 2 && toks[j - 1].is_punct(".") && toks[j - 2].is_ident("self") {
        j -= 2;
    }
    while j >= 1 && (toks[j - 1].is_punct("&") || toks[j - 1].is_ident("mut")) {
        j -= 1;
    }
    j >= 1 && toks[j - 1].is_ident("in")
}

/// Scan the statement containing token `i` for an [`ORDER_SAFE`] ident;
/// when the statement is a `let` binding, also accept a sort of the
/// bound name in the immediately following statement ("sorts first").
fn statement_is_order_safe(toks: &[Tok], i: usize) -> bool {
    // Statement start: nearest `;`, `{` or `}` before i.
    let start = (0..i)
        .rev()
        .find(|&k| toks[k].is_punct(";") || toks[k].is_punct("{") || toks[k].is_punct("}"))
        .map_or(0, |k| k + 1);
    // Statement end: first `;` or `{` at bracket/paren depth 0 after i.
    let mut depth = 0i32;
    let mut end = toks.len();
    for (k, t) in toks.iter().enumerate().take(toks.len()).skip(i) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth <= 0 && (t.is_punct(";") || t.is_punct("{")) {
            end = k;
            break;
        }
    }
    if toks[start..end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && ORDER_SAFE.contains(&t.text.as_str()))
    {
        return true;
    }
    // `let [mut] bound = <iteration>; bound.sort...()` on the next line.
    if toks.get(start).is_some_and(|t| t.is_ident("let")) && end < toks.len() {
        let mut j = start + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        if let Some(bound) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
            return toks.get(end + 1).is_some_and(|t| t.text == bound.text)
                && toks.get(end + 2).is_some_and(|p| p.is_punct("."))
                && toks
                    .get(end + 3)
                    .is_some_and(|m| m.text.starts_with("sort"));
        }
    }
    false
}

// ---------------------------------------------------------------- D3 --

/// One `const STREAM_* : u64` definition found in the workspace.
#[derive(Debug, Clone)]
pub struct StreamConst {
    /// Constant name (starts with `STREAM_`).
    pub name: String,
    /// Defining file (scan-root relative).
    pub path: String,
    /// Definition line.
    pub line: u32,
    /// Column of the name.
    pub col: u32,
    /// Evaluated value, when the initializer is a literal expression.
    pub value: Option<u64>,
}

/// Collect this file's `STREAM_*` constants into the registry.
pub fn collect_stream_consts(file: &SourceFile, registry: &mut Vec<StreamConst>) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("const") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.text.starts_with("STREAM_")) else {
            continue;
        };
        if !(toks.get(i + 2).is_some_and(|p| p.is_punct(":"))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("u64"))
            && toks.get(i + 4).is_some_and(|p| p.is_punct("=")))
        {
            continue;
        }
        let expr_start = i + 5;
        let expr_end = (expr_start..toks.len())
            .find(|&k| toks[k].is_punct(";"))
            .unwrap_or(toks.len());
        registry.push(StreamConst {
            name: name.text.clone(),
            path: file.rel.clone(),
            line: name.line,
            col: name.col,
            value: eval_const_expr(&toks[expr_start..expr_end]),
        });
    }
}

/// D3 (registry half): every stream constant must be a literal
/// expression, and no two constants may alias the same domain value.
pub fn check_stream_registry(registry: &[StreamConst], out: &mut Vec<Finding>) {
    let mut sorted: Vec<&StreamConst> = registry.iter().collect();
    sorted.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    for c in &sorted {
        if c.value.is_none() {
            out.push(Finding {
                lint: RNG_STREAM,
                path: c.path.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "stream constant `{}` is not a literal expression — the RNG \
                     stream-domain registry requires statically evaluable values",
                    c.name
                ),
            });
        }
    }
    for (i, c) in sorted.iter().enumerate() {
        let Some(v) = c.value else { continue };
        if let Some(first) = sorted[..i]
            .iter()
            .find(|p| p.value == Some(v) && p.name != c.name)
        {
            out.push(Finding {
                lint: RNG_STREAM,
                path: c.path.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "RNG stream-domain collision: `{}` = {:#x} duplicates `{}` \
                     ({}:{}) — two streams drawing from one domain correlate",
                    c.name, v, first.name, first.path, first.line
                ),
            });
        }
    }
}

/// D3 (call-site half): the domain argument of `Rng::stream(seed, d)`
/// must *start with* a registered `STREAM_` constant or an integer
/// literal, so every stream domain is statically accounted for.
pub fn check_stream_call_sites(
    file: &SourceFile,
    registry: &[StreamConst],
    out: &mut Vec<Finding>,
) {
    if file.is_test_file {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("Rng")
            && toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("stream"))
            && toks.get(i + 3).is_some_and(|p| p.is_punct("(")))
        {
            continue;
        }
        if file.in_test(toks[i].line) {
            continue;
        }
        // Find the `,` separating the two arguments (paren depth 1).
        let mut depth = 1i32;
        let mut k = i + 4;
        let mut domain = None;
        while k < toks.len() && depth > 0 {
            let t = &toks[k];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct(",") && depth == 1 {
                domain = toks.get(k + 1);
                break;
            }
            k += 1;
        }
        let Some(d) = domain else {
            continue;
        };
        let ok = match d.kind {
            TokKind::Int => true,
            TokKind::Ident => {
                d.text.starts_with("STREAM_") && registry.iter().any(|c| c.name == d.text)
            }
            _ => false,
        };
        if !ok {
            out.push(file.finding(
                RNG_STREAM,
                d,
                format!(
                    "`Rng::stream` domain `{}` is not a registered STREAM_ constant or \
                     integer literal — register the domain so collisions are \
                     statically checked",
                    d.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- D4 --

/// D4: the `mod interest` bitmask registry. Each non-`ALL` constant must
/// be a distinct single bit, and `ALL` must equal their union —
/// a colliding or shadowed bit silently merges two event variants'
/// delivery, which the engine's interest-gating would never notice.
pub fn event_bits(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_ident("mod") && toks.get(i + 1).is_some_and(|t| t.is_ident("interest"))) {
            i += 1;
            continue;
        }
        let Some(open) = (i + 2..toks.len()).find(|&k| toks[k].is_punct("{")) else {
            break;
        };
        // Brace-match the module body.
        let mut depth = 1usize;
        let mut end = open + 1;
        while end < toks.len() && depth > 0 {
            if toks[end].is_punct("{") {
                depth += 1;
            } else if toks[end].is_punct("}") {
                depth -= 1;
            }
            end += 1;
        }
        check_interest_mod(file, &toks[open..end], out);
        i = end;
    }
}

fn check_interest_mod(file: &SourceFile, toks: &[Tok], out: &mut Vec<Finding>) {
    // Collect `const NAME : u8|u16 = <expr> ;` items (the mask widened
    // to `u16` when the scheduler events outgrew eight bits).
    let mut consts: Vec<(&Tok, Option<u64>)> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("const") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !(toks.get(i + 2).is_some_and(|p| p.is_punct(":"))
            && toks
                .get(i + 3)
                .is_some_and(|t| t.is_ident("u8") || t.is_ident("u16"))
            && toks.get(i + 4).is_some_and(|p| p.is_punct("=")))
        {
            continue;
        }
        let expr_start = i + 5;
        let expr_end = (expr_start..toks.len())
            .find(|&k| toks[k].is_punct(";"))
            .unwrap_or(toks.len());
        consts.push((name, eval_const_expr(&toks[expr_start..expr_end])));
    }
    let mut union = 0u64;
    for (idx, (name, value)) in consts.iter().enumerate() {
        let Some(v) = *value else {
            out.push(file.finding(
                EVENT_BITS,
                name,
                format!("interest bit `{}` is not a literal expression", name.text),
            ));
            continue;
        };
        if name.text == "ALL" {
            continue;
        }
        if v == 0 || !v.is_power_of_two() {
            out.push(file.finding(
                EVENT_BITS,
                name,
                format!(
                    "interest bit `{}` = {v:#x} is not a single bit — every variant \
                     needs its own bit for interest gating to be exact",
                    name.text
                ),
            ));
        }
        if let Some((first, _)) = consts[..idx]
            .iter()
            .find(|(n, pv)| *pv == Some(v) && n.text != "ALL")
        {
            out.push(file.finding(
                EVENT_BITS,
                name,
                format!(
                    "interest-bit collision: `{}` = {v:#x} shadows `{}` (line {}) — \
                     the engine would deliver both variants to sinks that asked \
                     for one",
                    name.text, first.text, first.line
                ),
            ));
        }
        union |= v;
    }
    if let Some((name, Some(all))) = consts.iter().find(|(n, _)| n.text == "ALL") {
        if *all != union {
            out.push(file.finding(
                EVENT_BITS,
                name,
                format!(
                    "`ALL` = {all:#x} does not equal the union of the defined bits \
                     ({union:#x}) — a variant would be silently dropped or phantom \
                     bits delivered"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- S1 --

/// S1: every `unsafe` keyword must be justified by a `// SAFETY:`
/// comment on the same line or within the three lines above it.
pub fn safety_comment(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for t in toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        let justified = file.lexed.comments.iter().any(|c| {
            c.text.contains("SAFETY:")
                && ((c.start_line <= t.line && t.line <= c.end_line)
                    || (c.end_line < t.line && t.line - c.end_line <= 3)
                    || c.start_line == t.line)
        });
        if !justified {
            out.push(
                file.finding(
                    SAFETY_COMMENT,
                    t,
                    "`unsafe` without a preceding `// SAFETY:` comment — state the \
                 invariant that makes this sound"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- P1 --

/// Files whose non-test code must not contain panicking calls: the
/// crawl engine's hot path and the deterministic generation/fault core.
/// Suffix-matched so fixture trees can mirror the layout.
const P1_PATHS: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/frontier.rs",
    "crates/core/src/queue.rs",
    "crates/core/src/readahead.rs",
    "crates/core/src/sched.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/snapshot.rs",
    "crates/webgraph/src/generate.rs",
    "crates/webgraph/src/fault.rs",
];

/// Does P1 apply to this file?
pub fn p1_applies(rel: &str) -> bool {
    P1_PATHS.iter().any(|p| rel == *p || rel.ends_with(p))
}

/// P1: no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/
/// `unreachable!` in the crawl-engine and generation hot paths —
/// recoverable structure or an explicitly justified allow only.
pub fn no_panic(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.is_test_file || !p1_applies(&file.rel) {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || file.in_test(t.line) {
            continue;
        }
        let method_call = |name: &str| {
            t.text == name
                && i >= 1
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|p| p.is_punct("("))
        };
        let macro_call =
            |name: &str| t.text == name && toks.get(i + 1).is_some_and(|p| p.is_punct("!"));
        let offender = if method_call("unwrap") {
            Some(".unwrap()")
        } else if method_call("expect") {
            Some(".expect()")
        } else if macro_call("panic") {
            Some("panic!")
        } else if macro_call("todo") {
            Some("todo!")
        } else if macro_call("unimplemented") {
            Some("unimplemented!")
        } else if macro_call("unreachable") {
            Some("unreachable!")
        } else {
            None
        };
        if let Some(what) = offender {
            out.push(file.finding(
                NO_PANIC,
                t,
                format!(
                    "`{what}` in a no-panic path ({}) — restructure to a recoverable \
                     form or justify with lint:allow(no-panic)",
                    file.rel
                ),
            ));
        }
    }
}
