//! Call resolution, reachability, and the transitive passes P1T
//! (`no-panic-transitive`) / P2T (`no-alloc-transitive`), plus the
//! deterministic DOT/JSON call-graph emitters CI archives per commit.
//!
//! ## Resolution tiers (best hit wins)
//!
//! 1. `Type::method` / `Self::method` — exact (owner, name) lookup;
//! 2. `self.method` — the enclosing impl type;
//! 3. `self.field.method` / `local.field.method` — field types folded
//!    through the struct index, starting from the impl type or a
//!    parameter/`let` type hint;
//! 4. typed receivers whose type is a std container resolve against the
//!    built-in std table instead of workspace candidates;
//! 5. anything else links **all** workspace methods with that name — a
//!    deliberate over-approximation that makes dyn/generic dispatch
//!    (strategies, sinks, frontiers) conservatively visible;
//! 6. names with no workspace candidate classify via the std table:
//!    known-safe, known-panicking, known-allocating, or recorded as an
//!    unresolved external (never flagged).
//!
//! ## Suppression
//!
//! Findings suppress at the leaf site like any other lint; additionally
//! an allow covering a *call site* severs that edge in the matching
//! closure ([`EdgeAllow`]) — the caller vouches for the callee subtree
//! from this context, which keeps leaf crates free of annotations that
//! only exist because of some caller's root.
//!
//! Determinism: every container here is a `BTreeMap` or a sorted `Vec`;
//! BFS visits roots and successors in index order, so findings, chains,
//! DOT and JSON are byte-stable across runs and thread counts.

use crate::findings::Finding;
use crate::index::{Call, FnDef, Index, Recv, Site, ROOT_ALLOC_FREE, ROOT_PANIC_FREE};
use crate::passes::{allow_covers, NO_ALLOC_TRANSITIVE, NO_PANIC_TRANSITIVE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A suppression the BFS consults while walking the closure: an allow
/// whose line range covers a *call site* severs that edge (the caller
/// vouches for the whole callee subtree from this context), instead of
/// requiring a leaf allow at every reachable site. The scan builds
/// these from the same `lint:allow` comments that suppress findings.
#[derive(Debug)]
pub struct EdgeAllow {
    /// File the allow lives in (workspace-relative).
    pub path: String,
    /// First line the allow covers.
    pub start_line: u32,
    /// Last line the allow covers (the line after the comment).
    pub end_line: u32,
    /// The allowed lint id, verbatim (aliases resolve via
    /// [`allow_covers`]).
    pub id: String,
}

/// Types whose methods never resolve to workspace fns: calls on them go
/// straight to the std table (a hinted `Vec` receiver must not link a
/// workspace `push`).
const STD_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "str",
    "Box",
    "BinaryHeap",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "Option",
    "Result",
    "Ordering",
    "Reverse",
    "Wrapping",
    "Cell",
    "RefCell",
    "Rc",
    "Arc",
    "Path",
    "PathBuf",
    "Duration",
    "Instant",
    "u8",
    "u16",
    "u32",
    "u64",
    "usize",
    "i32",
    "i64",
    "f32",
    "f64",
    "bool",
    "char",
];

/// Std calls that allocate. `push`/`push_back`/`insert` are treated as
/// amortized-safe by policy (the counting-allocator test in
/// `crates/bench/tests/steady_state.rs` bounds real growth
/// dynamically); deep operations that always allocate are listed here.
const STD_ALLOC: &[&str] = &[
    "to_string",
    "to_owned",
    "into_vec",
    "join",
    "concat",
    "repeat",
    "extend",
    "extend_from_slice",
    "reserve",
    "reserve_exact",
    "resize",
    "split_off",
    "into_sorted_vec",
    "to_uppercase",
    "to_lowercase",
];

/// Std calls that panic on contract violation.
const STD_PANIC: &[&str] = &["copy_from_slice", "clone_from_slice"];

/// Std / primitive calls known not to panic or allocate — kept out of
/// the unresolved list so the graph stays readable. Everything not
/// listed anywhere is recorded as an unresolved external and never
/// flagged (a documented under-approximation).
const STD_SAFE: &[&str] = &[
    // iteration / slices
    "iter",
    "iter_mut",
    "into_iter",
    "chunks",
    "windows",
    "enumerate",
    "rev",
    "take",
    "skip",
    "chain",
    "zip",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "find",
    "find_map",
    "position",
    "any",
    "all",
    "fold",
    "sum",
    "product",
    "count",
    "next",
    "next_back",
    "peek",
    "peekable",
    "step_by",
    "by_ref",
    "cloned",
    "copied",
    "last",
    "first",
    "first_mut",
    "last_mut",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "partition_point",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "swap",
    "swap_remove",
    "fill",
    "rotate_left",
    "rotate_right",
    "truncate",
    "clear",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "insert",
    "remove",
    "entry",
    "drain",
    "split_at",
    "split_at_mut",
    "as_slice",
    "as_mut_slice",
    "as_bytes",
    "as_str",
    "as_ref",
    "as_mut",
    "borrow",
    "borrow_mut",
    // Option / Result
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_or",
    "map_or_else",
    "map_err",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "and_then",
    "or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "is_some_and",
    "is_none_or",
    "take",
    "replace",
    "get_or_insert_with",
    "filter",
    "unwrap_unchecked",
    // numerics
    "min",
    "max",
    "clamp",
    "abs",
    "pow",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "checked_shl",
    "checked_shr",
    "overflowing_add",
    "rotate_left",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
    "is_power_of_two",
    "next_power_of_two",
    "to_le_bytes",
    "to_be_bytes",
    "from_le_bytes",
    "from_be_bytes",
    "from",
    "into",
    "try_from",
    "try_into",
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "then",
    "then_with",
    "reverse",
    "signum",
    // misc free/assoc fns and common ctors
    "Some",
    "None",
    "Ok",
    "Err",
    "default",
    "size_of",
    "drop",
    "min_by_key",
    "max_by_key",
    "min_by",
    "max_by",
    "floor",
    "ceil",
    "round",
    "sqrt",
    "ln",
    "log2",
    "exp",
    "mul_add",
    "is_finite",
    "is_nan",
    "trim",
    "split",
    "splitn",
    "split_once",
    "rsplit_once",
    "chars",
    "bytes",
    "char_indices",
    "parse",
    "write",
    "write_str",
    "write_fmt",
    "write_all",
    "flush",
    "hash",
    "wrapping_rem",
    "rem_euclid",
    "div_euclid",
];

/// How one call resolved.
#[derive(Debug)]
enum Resolved {
    /// Workspace edges (fn indices).
    Edges(Vec<usize>),
    /// A std call known to panic.
    StdPanic,
    /// A std call known to allocate.
    StdAlloc,
    /// A std call known to be safe.
    StdSafe,
    /// Not in the workspace and not in the table.
    External,
}

/// The resolved call graph plus per-property reachability.
#[derive(Debug)]
pub struct Graph<'a> {
    idx: &'a Index,
    /// Resolved successors per fn as (callee, call-site line), sorted +
    /// deduped. The line lets the BFS honor edge-severing allows.
    edges: Vec<Vec<(usize, u32)>>,
    /// Call sites that resolved to a panicking std fn.
    std_panics: Vec<Vec<Site>>,
    /// Call sites that resolved to an allocating std fn.
    std_allocs: Vec<Vec<Site>>,
    /// Unresolved external names per fn, sorted + deduped.
    unresolved: Vec<Vec<String>>,
    /// BFS parent per fn for the panic-free closure (`usize::MAX` =
    /// unreachable; a root is its own parent).
    panic_parent: Vec<usize>,
    /// Same for the alloc-free closure.
    alloc_parent: Vec<usize>,
    /// Indices (into the `allows` slice passed to [`Graph::build`]) of
    /// allows that severed at least one edge, sorted.
    used_allows: Vec<usize>,
}

const UNREACHED: usize = usize::MAX;

impl<'a> Graph<'a> {
    /// Resolve every call in the index and compute both closures,
    /// honoring edge-severing `allows` (see [`EdgeAllow`]).
    pub fn build(idx: &'a Index, allows: &[EdgeAllow]) -> Graph<'a> {
        let n = idx.fns.len();
        // Lookup maps. A (owner, name) key can hold several fns — an
        // inherent method and a trait-impl shim on the same type.
        let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (k, f) in idx.fns.iter().enumerate() {
            match &f.owner {
                Some(o) => {
                    by_owner_name.entry((o, &f.name)).or_default().push(k);
                    methods_by_name.entry(&f.name).or_default().push(k);
                }
                None => free_by_name.entry(&f.name).or_default().push(k),
            }
        }
        let mut fields: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        for s in &idx.structs {
            for (fname, ty) in &s.fields {
                fields.insert((&s.name, fname), ty);
            }
        }

        let mut edges = vec![Vec::new(); n];
        let mut std_panics = vec![Vec::new(); n];
        let mut std_allocs = vec![Vec::new(); n];
        let mut unresolved = vec![Vec::new(); n];
        for (k, f) in idx.fns.iter().enumerate() {
            for call in &f.calls {
                let r = resolve(
                    call,
                    f,
                    &idx.fns,
                    &by_owner_name,
                    &methods_by_name,
                    &free_by_name,
                    &fields,
                );
                match r {
                    Resolved::Edges(v) => edges[k].extend(v.into_iter().map(|to| (to, call.line))),
                    Resolved::StdPanic => std_panics[k].push(Site {
                        what: format!("`{}` (panics on contract violation)", call.name),
                        line: call.line,
                        col: call.col,
                    }),
                    Resolved::StdAlloc => std_allocs[k].push(Site {
                        what: format!("`{}` (allocates)", call.name),
                        line: call.line,
                        col: call.col,
                    }),
                    Resolved::StdSafe => {}
                    Resolved::External => unresolved[k].push(call.name.clone()),
                }
            }
            edges[k].sort_unstable();
            edges[k].dedup();
            unresolved[k].sort();
            unresolved[k].dedup();
        }

        let mut used = BTreeSet::new();
        let panic_parent = closure(
            idx,
            &edges,
            ROOT_PANIC_FREE,
            NO_PANIC_TRANSITIVE,
            allows,
            &mut used,
        );
        let alloc_parent = closure(
            idx,
            &edges,
            ROOT_ALLOC_FREE,
            NO_ALLOC_TRANSITIVE,
            allows,
            &mut used,
        );
        Graph {
            idx,
            edges,
            std_panics,
            std_allocs,
            unresolved,
            panic_parent,
            alloc_parent,
            used_allows: used.into_iter().collect(),
        }
    }

    /// Indices into the `allows` slice passed to [`Graph::build`] whose
    /// allow severed at least one traversed edge.
    pub fn used_allow_indices(&self) -> &[usize] {
        &self.used_allows
    }

    /// Emit P1T/P2T findings for every site reachable from a root.
    pub fn transitive_findings(&self, out: &mut Vec<Finding>) {
        for (k, f) in self.idx.fns.iter().enumerate() {
            if self.panic_parent[k] != UNREACHED {
                let chain = self.chain(&self.panic_parent, k);
                for s in &f.panics {
                    out.push(self.finding(
                        NO_PANIC_TRANSITIVE,
                        f,
                        s,
                        &format!(
                            "`{}` reachable from panic-free root ({chain}) — restructure \
                             to a recoverable form or justify with \
                             lint:allow(no-panic-transitive)",
                            s.what
                        ),
                    ));
                }
                if let Some(first) = f.indexing.first() {
                    out.push(self.finding(
                        NO_PANIC_TRANSITIVE,
                        f,
                        first,
                        &format!(
                            "{} slice/array indexing site(s) in `{}` reachable from \
                             panic-free root ({chain}) — indexing panics out of bounds; \
                             state the bounds invariant with \
                             lint:allow(no-panic-transitive)",
                            f.indexing.len(),
                            f.display()
                        ),
                    ));
                }
                for s in &self.std_panics[k] {
                    out.push(self.finding(
                        NO_PANIC_TRANSITIVE,
                        f,
                        s,
                        &format!(
                            "std call {} reachable from panic-free root ({chain}) — \
                             justify with lint:allow(no-panic-transitive)",
                            s.what
                        ),
                    ));
                }
            }
            if self.alloc_parent[k] != UNREACHED {
                let chain = self.chain(&self.alloc_parent, k);
                for s in &f.allocs {
                    out.push(self.finding(
                        NO_ALLOC_TRANSITIVE,
                        f,
                        s,
                        &format!(
                            "`{}` reachable from alloc-free root ({chain}) — reuse a \
                             scratch buffer or justify with \
                             lint:allow(no-alloc-transitive)",
                            s.what
                        ),
                    ));
                }
                for s in &self.std_allocs[k] {
                    out.push(self.finding(
                        NO_ALLOC_TRANSITIVE,
                        f,
                        s,
                        &format!(
                            "std call {} reachable from alloc-free root ({chain}) — \
                             justify with lint:allow(no-alloc-transitive)",
                            s.what
                        ),
                    ));
                }
            }
        }
    }

    fn finding(&self, lint: &'static str, f: &FnDef, s: &Site, message: &str) -> Finding {
        Finding {
            lint,
            path: f.path.clone(),
            line: s.line,
            col: s.col,
            message: message.to_string(),
        }
    }

    /// `call chain `root` → … → `fn``, or `in the root itself`.
    fn chain(&self, parent: &[usize], k: usize) -> String {
        if parent[k] == k {
            return format!("in root `{}` itself", self.idx.fns[k].display());
        }
        let mut names = vec![self.idx.fns[k].display()];
        let mut cur = k;
        while parent[cur] != cur {
            cur = parent[cur];
            names.push(self.idx.fns[cur].display());
        }
        names.reverse();
        let mut out = String::from("call chain ");
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                out.push_str(" → ");
            }
            let _ = write!(out, "`{n}`");
        }
        out
    }

    /// Fns in the emitted graph: reachable in either closure, plus all
    /// roots. Returned in index (path, line) order.
    fn emitted(&self) -> Vec<usize> {
        (0..self.idx.fns.len())
            .filter(|&k| {
                self.panic_parent[k] != UNREACHED
                    || self.alloc_parent[k] != UNREACHED
                    || self.idx.fns[k].roots != 0
            })
            .collect()
    }

    /// Deterministic DOT rendering of the hot-path subgraph.
    pub fn to_dot(&self) -> String {
        let keep = self.emitted();
        let id_of: BTreeMap<usize, usize> = keep.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut out = String::from("digraph hotpath {\n  rankdir=LR;\n  node [fontsize=10];\n");
        for &k in &keep {
            let f = &self.idx.fns[k];
            let shape = if f.roots != 0 { "doubleoctagon" } else { "box" };
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\\n{}:{}\" shape={shape}];",
                id_of[&k],
                f.display(),
                f.path,
                f.line
            );
        }
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &k in &keep {
            for &(to, _) in &self.edges[k] {
                if let Some(&t) = id_of.get(&to) {
                    pairs.insert((id_of[&k], t));
                }
            }
        }
        for (a, b) in pairs {
            let _ = writeln!(out, "  n{a} -> n{b};");
        }
        out.push_str("}\n");
        out
    }

    /// Deterministic JSON adjacency (nodes sorted by (path, line)).
    pub fn to_json(&self) -> String {
        let keep = self.emitted();
        let id_of: BTreeMap<usize, usize> = keep.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut out = String::from("{\n  \"nodes\": [");
        for (i, &k) in keep.iter().enumerate() {
            let f = &self.idx.fns[k];
            if i > 0 {
                out.push(',');
            }
            let mut roots = Vec::new();
            if f.roots & ROOT_PANIC_FREE != 0 {
                roots.push("\"panic-free\"");
            }
            if f.roots & ROOT_ALLOC_FREE != 0 {
                roots.push("\"alloc-free\"");
            }
            let mut reach = Vec::new();
            if self.panic_parent[k] != UNREACHED {
                reach.push("\"panic-free\"");
            }
            if self.alloc_parent[k] != UNREACHED {
                reach.push("\"alloc-free\"");
            }
            let unresolved: Vec<String> = self.unresolved[k]
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect();
            let _ = write!(
                out,
                "\n    {{\"id\": {i}, \"fn\": \"{}\", \"path\": \"{}\", \"line\": {}, \
                 \"roots\": [{}], \"reach\": [{}], \"panics\": {}, \"indexing\": {}, \
                 \"allocs\": {}, \"unresolved\": [{}]}}",
                f.display(),
                f.path,
                f.line,
                roots.join(", "),
                reach.join(", "),
                f.panics.len(),
                f.indexing.len(),
                f.allocs.len(),
                unresolved.join(", ")
            );
        }
        if !keep.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"edges\": [");
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &k in &keep {
            for &(to, _) in &self.edges[k] {
                if let Some(&t) = id_of.get(&to) {
                    pairs.insert((id_of[&k], t));
                }
            }
        }
        for (i, (a, b)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    [{a}, {b}]");
        }
        if !pairs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Multi-source BFS from every fn carrying `prop`; returns the parent
/// array (`UNREACHED` = not in the closure, roots point at themselves).
/// An allow covering a call site (matched through [`allow_covers`], so
/// the lexical alias suppresses the transitive lint too) severs that
/// edge and is recorded in `used`.
fn closure(
    idx: &Index,
    edges: &[Vec<(usize, u32)>],
    prop: u8,
    lint: &str,
    allows: &[EdgeAllow],
    used: &mut BTreeSet<usize>,
) -> Vec<usize> {
    let n = idx.fns.len();
    let mut parent = vec![UNREACHED; n];
    let mut queue = std::collections::VecDeque::new();
    for (k, f) in idx.fns.iter().enumerate() {
        if f.roots & prop != 0 {
            parent[k] = k;
            queue.push_back(k);
        }
    }
    while let Some(k) = queue.pop_front() {
        let path = idx.fns[k].path.as_str();
        for &(to, line) in &edges[k] {
            let severed = allows.iter().position(|a| {
                allow_covers(&a.id, lint)
                    && a.path == path
                    && a.start_line <= line
                    && line <= a.end_line
            });
            if let Some(i) = severed {
                used.insert(i);
                continue;
            }
            if parent[to] == UNREACHED {
                parent[to] = k;
                queue.push_back(to);
            }
        }
    }
    parent
}

/// Classify a name against the std table.
fn classify_std(name: &str) -> Resolved {
    if STD_PANIC.contains(&name) {
        Resolved::StdPanic
    } else if STD_ALLOC.contains(&name) {
        Resolved::StdAlloc
    } else if STD_SAFE.contains(&name) {
        Resolved::StdSafe
    } else {
        Resolved::External
    }
}

/// Fold a field path through the struct index: `CrawlEngine` + `scratch`
/// → `Scratch`, then `attempts` → `Vec`. `None` when a hop is unknown.
fn fold_fields<'m>(
    start: &'m str,
    path: &[String],
    fields: &BTreeMap<(&str, &str), &'m str>,
) -> Option<&'m str> {
    let mut ty = start;
    for f in path {
        ty = fields.get(&(ty, f.as_str())).copied()?;
    }
    Some(ty)
}

/// `crates/core/src/sched.rs` → `sched`.
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(path)
}

fn resolve(
    call: &Call,
    caller: &FnDef,
    fns: &[FnDef],
    by_owner_name: &BTreeMap<(&str, &str), Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    fields: &BTreeMap<(&str, &str), &str>,
) -> Resolved {
    let name = call.name.as_str();
    let typed_hit = |ty: &str| -> Option<Resolved> {
        if STD_TYPES.contains(&ty) {
            return Some(classify_std(name));
        }
        by_owner_name
            .get(&(ty, name))
            .map(|v| Resolved::Edges(v.clone()))
    };
    let all_methods = || -> Resolved {
        match methods_by_name.get(name) {
            Some(v) => Resolved::Edges(v.clone()),
            None => classify_std(name),
        }
    };
    match &call.recv {
        Recv::SelfPath(path) => {
            let Some(owner) = caller.owner.as_deref() else {
                return all_methods();
            };
            match fold_fields(owner, path, fields) {
                Some(ty) => typed_hit(ty).unwrap_or_else(all_methods),
                None => all_methods(),
            }
        }
        Recv::Local(ty, path) => match fold_fields(ty, path, fields) {
            Some(ty) => typed_hit(ty).unwrap_or_else(all_methods),
            None => all_methods(),
        },
        Recv::Path(qual) => {
            if let Some(r) = typed_hit(qual) {
                return r;
            }
            // Lowercase qualifier — a module path (`sched::emit`,
            // `mem::take`): prefer free fns defined in a file with that
            // stem, then any free fn, then the std table.
            if let Some(v) = free_by_name.get(name) {
                if qual.chars().next().is_some_and(char::is_lowercase) {
                    let in_module: Vec<usize> = v
                        .iter()
                        .copied()
                        .filter(|&k| file_stem(&fns[k].path) == *qual)
                        .collect();
                    if !in_module.is_empty() {
                        return Resolved::Edges(in_module);
                    }
                }
                return Resolved::Edges(v.clone());
            }
            classify_std(name)
        }
        Recv::Free => {
            if let Some(v) = free_by_name.get(name) {
                // Prefer same-file free fns (two files may define a
                // private helper with the same name, e.g. `emit`).
                let same_file: Vec<usize> = v
                    .iter()
                    .copied()
                    .filter(|&k| fns[k].path == caller.path)
                    .collect();
                if !same_file.is_empty() {
                    return Resolved::Edges(same_file);
                }
                return Resolved::Edges(v.clone());
            }
            // Tuple-struct constructors (`Some`, `Entry`, `Reverse`)
            // neither panic nor heap-allocate.
            if name.chars().next().is_some_and(char::is_uppercase) {
                return Resolved::StdSafe;
            }
            classify_std(name)
        }
        Recv::Unknown => all_methods(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::SourceFile;

    fn graph_findings(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("crates/core/src/x.rs".to_string(), src);
        let files = [file];
        let idx = Index::build(&files);
        assert!(idx.findings.is_empty(), "{:?}", idx.findings);
        let g = Graph::build(&idx, &[]);
        let mut out = Vec::new();
        g.transitive_findings(&mut out);
        out
    }

    #[test]
    fn allow_on_a_call_site_severs_the_edge() {
        let src = "// lint:root(panic-free)\n\
                   fn entry(x: Option<u64>) -> u64 {\n\
                   // lint:allow(no-panic-transitive): boot-time only, input is static\n\
                   helper(x)\n\
                   }\n\
                   fn helper(x: Option<u64>) -> u64 { x.unwrap() }\n";
        let file = SourceFile::new("crates/core/src/x.rs".to_string(), src);
        let files = [file];
        let idx = Index::build(&files);
        let allows = [EdgeAllow {
            path: "crates/core/src/x.rs".to_string(),
            start_line: 3,
            end_line: 4,
            id: "no-panic-transitive".to_string(),
        }];
        let g = Graph::build(&idx, &allows);
        let mut out = Vec::new();
        g.transitive_findings(&mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(g.used_allow_indices(), &[0]);
    }

    #[test]
    fn one_hop_panic_is_reached_with_chain() {
        let out = graph_findings(
            "// lint:root(panic-free)\n\
             fn entry(x: Option<u64>) -> u64 { helper(x) }\n\
             fn helper(x: Option<u64>) -> u64 { x.unwrap() }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, NO_PANIC_TRANSITIVE);
        assert_eq!(out[0].line, 3);
        assert!(
            out[0].message.contains("`entry` → `helper`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn unreached_panics_stay_silent() {
        let out = graph_findings(
            "// lint:root(panic-free)\n\
             fn entry() -> u64 { 1 }\n\
             fn lonely(x: Option<u64>) -> u64 { x.unwrap() }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn generic_receiver_links_all_trait_impls() {
        let out = graph_findings(
            "pub trait F { fn next_page(&mut self) -> u64; }\n\
             pub struct Calm;\n\
             impl F for Calm { fn next_page(&mut self) -> u64 { 7 } }\n\
             pub struct Edgy { slots: Vec<u64> }\n\
             impl F for Edgy { fn next_page(&mut self) -> u64 { self.slots[3] } }\n\
             // lint:root(panic-free)\n\
             pub fn drive<T: F>(f: &mut T) -> u64 { f.next_page() }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("Edgy::next_page"),
            "{}",
            out[0].message
        );
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn alloc_closure_sees_vec_new_and_format() {
        let out = graph_findings(
            "struct E { buf: Vec<u64> }\n\
             impl E {\n\
               // lint:root(alloc-free)\n\
               fn tick(&mut self) -> usize { self.refill(); stamp().len() }\n\
               fn refill(&mut self) { self.buf = Vec::new(); }\n\
             }\n\
             fn stamp() -> u64 { let s = format!(\"t\"); s.len() as u64 }\n",
        );
        let lints: Vec<(&str, u32)> = out.iter().map(|f| (f.lint, f.line)).collect();
        assert_eq!(
            lints,
            vec![(NO_ALLOC_TRANSITIVE, 5), (NO_ALLOC_TRANSITIVE, 7)],
            "{out:?}"
        );
    }

    #[test]
    fn std_container_receiver_does_not_link_workspace_methods() {
        // `v.push(…)` on a hinted Vec must not link `Q::push`.
        let out = graph_findings(
            "pub struct Q { n: Vec<u64> }\n\
             impl Q { pub fn push(&mut self, x: u64) { self.n[0] = x; } }\n\
             // lint:root(panic-free)\n\
             fn entry() { let mut v: Vec<u64> = make(); v.push(1); }\n\
             fn make() -> Vec<u64> { vec![0] }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn field_types_fold_through_the_struct_index() {
        let out = graph_findings(
            "pub struct Inner { xs: Vec<u64> }\n\
             impl Inner { pub fn poke(&mut self) -> u64 { self.xs[0] } }\n\
             pub struct Outer { inner: Inner }\n\
             impl Outer {\n\
               // lint:root(panic-free)\n\
               pub fn run(&mut self) -> u64 { self.inner.poke() }\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("Inner::poke"), "{}", out[0].message);
    }

    #[test]
    fn dot_and_json_are_deterministic_and_cover_roots() {
        let src = "// lint:root(panic-free)\n\
                   fn entry(x: Option<u64>) -> u64 { helper(x) }\n\
                   fn helper(x: Option<u64>) -> u64 { x.unwrap_or(0) }\n";
        let file = SourceFile::new("crates/core/src/x.rs".to_string(), src);
        let files = [file];
        let idx = Index::build(&files);
        let g = Graph::build(&idx, &[]);
        let (d1, j1) = (g.to_dot(), g.to_json());
        let g2 = Graph::build(&idx, &[]);
        assert_eq!(d1, g2.to_dot());
        assert_eq!(j1, g2.to_json());
        assert!(d1.contains("doubleoctagon"), "{d1}");
        assert!(d1.contains("n0 -> n1"), "{d1}");
        assert!(j1.contains("\"fn\": \"entry\""), "{j1}");
        assert!(j1.contains("[0, 1]"), "{j1}");
    }
}
