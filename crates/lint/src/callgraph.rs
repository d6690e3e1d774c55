//! Workspace call graph over [`crate::parser`] items.
//!
//! Calls are recovered syntactically from the blanked code: an
//! identifier directly followed by `(` is a call site. A site records
//! its qualifier path (`Type::name(..)`), its receiver chain for method
//! calls (`self.inner.state.lock()` → receiver `self.inner.state`), its
//! line, and whether the argument list is empty (several sink
//! heuristics need the arity signal, e.g. `.read()` as a lock
//! acquisition vs `.read(&mut buf)` as blocking IO).
//!
//! Resolution is best-effort and intentionally conservative:
//!
//! * `Type::name` resolves to the unique workspace fn qualified as
//!   `Type::name`.
//! * bare `name(..)` resolves among *free* fns only.
//! * `.name(..)` method calls resolve among methods (same-file
//!   candidates preferred, unique-global fallback), except for names on
//!   the ambiguity skip-list (`new`, `lock`, `push`, ... — shared by
//!   std types and half the workspace), which are never resolved and
//!   are instead handled by the rules' sink/marker tables.
//!
//! Test files and `#[cfg(test)]` items are excluded from the graph
//! entirely: they neither contribute summaries nor pollute bare-name
//! resolution.

use crate::lexer::is_ident_byte;
use crate::parser::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};

/// Method names too generic to resolve through the graph. Calls to
/// these still appear as [`CallSite`]s (rules match them as sinks or
/// markers by name) but never link to a workspace function.
pub const AMBIGUOUS_METHODS: &[&str] = &[
    "new", "clone", "default", "len", "is_empty", "get", "set", "insert",
    "remove", "push", "pop", "iter", "into_iter", "next", "collect",
    "drain", "clear", "contains", "contains_key", "entry", "or_insert_with",
    "get_or_insert_with", "unwrap", "expect", "map", "and_then", "ok",
    "err", "as_ref", "as_mut", "as_deref", "to_string", "to_xml", "parse",
    "write", "read", "lock", "try_lock", "wait", "wait_timeout",
    "wait_until", "send", "recv", "flush", "call", "start", "stop",
    "shutdown_signal", "take", "join", "get_mut", "extend", "reserve",
    "split_off", "retain", "last", "first", "find", "filter", "fold",
    "position", "count", "any", "all", "min", "max", "sum", "rev",
    "enumerate", "zip", "chain", "skip", "saturating_sub", "saturating_add",
    "wrapping_add", "checked_sub", "to_vec", "as_bytes", "as_str", "into",
    "from", "try_into", "try_from", "cloned", "copied", "trim", "starts_with",
    "ends_with", "split", "splitn", "lines", "chars", "bytes", "fmt",
];

/// Rust keywords that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "let", "loop", "else",
    "in", "as", "move", "mut", "ref", "pub", "use", "mod", "impl", "trait",
    "struct", "enum", "where", "unsafe", "async", "await", "dyn", "box",
    "crate", "super", "Self", "self", "true", "false", "const", "static",
];

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`route_raw`, `lock`, `splice_forward`).
    pub name: String,
    /// `Some("Type")` for `Type::name(..)` path calls (last path segment
    /// before the name; `std::thread::spawn` → qualifier `thread`).
    pub qualifier: Option<String>,
    /// Dotted receiver chain for method calls (`self.inner.state` for
    /// `self.inner.state.lock()`); empty for free/path calls.
    pub receiver: String,
    /// 1-based line.
    pub line: usize,
    /// Byte offset of the name within the blanked code.
    pub offset: usize,
    /// Byte offset just past the matching `)` of the argument list.
    pub args_end: usize,
    /// Whether the argument list is empty (`()`), ignoring whitespace.
    pub args_empty: bool,
    /// Whether this is a `.name(..)` method call.
    pub is_method: bool,
    /// Resolved callee, as an index into [`Graph::fns`], when resolution
    /// succeeded.
    pub callee: Option<usize>,
}

/// A function node in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Index of this fn within its [`ParsedFile::fns`].
    pub local_idx: usize,
    /// Bare name.
    pub name: String,
    /// `Type::name` or bare name.
    pub qualified: String,
    /// Call sites inside this fn's body (nested fns excluded).
    pub calls: Vec<CallSite>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every workspace fn, in file order.
    pub fns: Vec<FnNode>,
}

/// Scans one fn body for call sites. `body` is the `(start, end)` span in
/// `code`; `skip` holds nested-fn spans whose contents belong elsewhere.
fn scan_calls(
    code: &str,
    line_of: &dyn Fn(usize) -> usize,
    body: (usize, usize),
    skip: &[(usize, usize)],
) -> Vec<CallSite> {
    let b = code.as_bytes();
    let (start, end) = body;
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if let Some(&(_, se)) = skip.iter().find(|(s, e)| *s <= i && i < *e) {
            i = se;
            continue;
        }
        let c = b[i];
        if !(c as char).is_alphabetic() && c != b'_' {
            i += 1;
            continue;
        }
        // Read the identifier.
        let id_start = i;
        while i < end && is_ident_byte(b[i]) {
            i += 1;
        }
        let name = &code[id_start..i];
        // Skip whitespace between name and a possible `(` / `!` / `::<`.
        let mut j = i;
        // Turbofish: `name::<T>(...)`.
        if b.get(j) == Some(&b':') && b.get(j + 1) == Some(&b':') && b.get(j + 2) == Some(&b'<') {
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < end {
                match b[k] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        if b.get(j) == Some(&b'!') {
            // Macro invocation: skip its delimited body so `vec![...]`
            // contents still get scanned (they're code) — actually macro
            // args ARE scanned as normal text by continuing; just don't
            // record `name` as a call.
            i = j + 1;
            continue;
        }
        if b.get(j) != Some(&b'(') {
            continue;
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        // Find the matching `)` and whether args are empty.
        let args_open = j;
        let mut depth = 0i32;
        let mut k = args_open;
        let mut non_ws = false;
        while k < end {
            match b[k] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ch => {
                    if depth >= 1 && !(ch as char).is_whitespace() {
                        non_ws = true;
                    }
                }
            }
            k += 1;
        }
        let args_end = (k + 1).min(end);

        // Classify: method call (`.name`), path call (`Seg::name`), free.
        let mut is_method = false;
        let mut qualifier: Option<String> = None;
        let mut receiver = String::new();
        // Look back past whitespace before the identifier.
        let mut p = id_start;
        while p > start && (b[p - 1] as char).is_whitespace() && b[p - 1] != b'\n' {
            p -= 1;
        }
        if p >= 2 && b[p - 1] == b':' && b[p - 2] == b':' {
            // Path call: capture the segment before `::`.
            let mut q = p - 2;
            let seg_end = q;
            while q > start && is_ident_byte(b[q - 1]) {
                q -= 1;
            }
            if q < seg_end {
                qualifier = Some(code[q..seg_end].to_string());
            }
        } else if p > start && b[p - 1] == b'.' {
            is_method = true;
            // Walk back a dotted identifier chain: `a.b.c` or
            // `a.shards[i].c` (index dropped from the recorded chain).
            // Anything else — `foo().bar()` — gets an empty receiver,
            // which is fine: receiver matching is only a refinement.
            let mut segs: Vec<String> = Vec::new();
            let mut q = p - 1;
            loop {
                // Skip one balanced index group, if present.
                if q > start && b[q - 1] == b']' {
                    let mut depth = 0i32;
                    while q > start {
                        q -= 1;
                        match b[q] {
                            b']' => depth += 1,
                            b'[' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                let seg_end = q;
                while q > start && is_ident_byte(b[q - 1]) {
                    q -= 1;
                }
                if q == seg_end {
                    segs.clear();
                    break;
                }
                segs.push(code[q..seg_end].to_string());
                if q > start && b[q - 1] == b'.' {
                    q -= 1;
                    continue;
                }
                break;
            }
            segs.reverse();
            receiver = segs.join(".");
        }

        out.push(CallSite {
            name: name.to_string(),
            qualifier,
            receiver,
            line: line_of(id_start),
            offset: id_start,
            args_end,
            args_empty: !non_ws,
            is_method,
            callee: None,
        });
        // Continue *inside* the argument list (nested calls matter).
        i = args_open + 1;
    }
    out
}

/// Builds a line-number lookup for `code`: offset -> 1-based line.
pub fn line_index(code: &str) -> Vec<usize> {
    // starts[k] = byte offset where line k+1 begins.
    let mut starts = vec![0usize];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Maps a byte offset to its 1-based line using [`line_index`] output.
pub fn line_at(starts: &[usize], offset: usize) -> usize {
    match starts.binary_search(&offset) {
        Ok(k) => k + 1,
        Err(k) => k,
    }
}

/// Builds the graph from `(repo-relative path, parsed file)` pairs;
/// the caller leaves test collateral out.
pub fn build<'a>(files: impl IntoIterator<Item = (&'a str, &'a ParsedFile)>) -> Graph {
    let mut g = Graph::default();

    // Pass 1: nodes + raw call sites.
    for (path, pf) in files {
        let starts = line_index(&pf.stripped.code);
        for (li, f) in pf.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let calls = match f.body {
                Some(span) => {
                    let nested = pf.nested_spans(li);
                    scan_calls(
                        &pf.stripped.code,
                        &|off| line_at(&starts, off),
                        span,
                        &nested,
                    )
                }
                None => Vec::new(),
            };
            g.fns.push(FnNode {
                file: path.to_string(),
                local_idx: li,
                name: f.name.clone(),
                qualified: f.qualified.clone(),
                calls,
            });
        }
    }

    // Resolution tables.
    let mut by_qualified: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        by_qualified.entry(&f.qualified).or_default().push(i);
        if f.qualified == f.name {
            free_by_name.entry(&f.name).or_default().push(i);
        } else {
            methods_by_name.entry(&f.name).or_default().push(i);
        }
    }

    let ambiguous: BTreeSet<&str> = AMBIGUOUS_METHODS.iter().copied().collect();

    // Pass 2: resolve.
    let mut resolutions: Vec<(usize, usize, usize)> = Vec::new(); // (fn, call, callee)
    for (fi, f) in g.fns.iter().enumerate() {
        for (ci, c) in f.calls.iter().enumerate() {
            let callee = if let Some(q) = &c.qualifier {
                let key = format!("{q}::{}", c.name);
                match by_qualified.get(key.as_str()) {
                    Some(v) if v.len() == 1 => Some(v[0]),
                    _ => None,
                }
            } else if c.is_method {
                if ambiguous.contains(c.name.as_str()) {
                    None
                } else {
                    match methods_by_name.get(c.name.as_str()) {
                        Some(v) if v.len() == 1 => Some(v[0]),
                        Some(v) => {
                            // Prefer a unique same-file candidate.
                            let same: Vec<usize> = v
                                .iter()
                                .copied()
                                .filter(|&m| g.fns[m].file == f.file)
                                .collect();
                            if same.len() == 1 {
                                Some(same[0])
                            } else {
                                None
                            }
                        }
                        None => None,
                    }
                }
            } else if ambiguous.contains(c.name.as_str()) {
                None
            } else {
                match free_by_name.get(c.name.as_str()) {
                    Some(v) if v.len() == 1 => Some(v[0]),
                    _ => None,
                }
            };
            if let Some(t) = callee {
                if t != fi {
                    resolutions.push((fi, ci, t));
                }
            }
        }
    }
    for (fi, ci, t) in resolutions {
        g.fns[fi].calls[ci].callee = Some(t);
    }

    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let parsed: Vec<ParsedFile> = files.iter().map(|(_, s)| parse(s)).collect();
        build(files.iter().map(|(p, _)| *p).zip(&parsed))
    }

    fn node<'g>(g: &'g Graph, q: &str) -> &'g FnNode {
        g.fns.iter().find(|f| f.qualified == q).unwrap()
    }

    #[test]
    fn free_call_resolves() {
        let g = graph_of(&[("a.rs", "fn leaf() {}\nfn root() { leaf(); }\n")]);
        let root = node(&g, "root");
        let c = &root.calls[0];
        assert_eq!(c.name, "leaf");
        let callee = c.callee.unwrap();
        assert_eq!(g.fns[callee].qualified, "leaf");
    }

    #[test]
    fn qualified_call_resolves_cross_file() {
        let g = graph_of(&[
            ("a.rs", "struct Core;\nimpl Core {\n    fn route_raw(&self) {}\n}\n"),
            ("b.rs", "fn f(c: &Core) { Core::route_raw(c); }\n"),
        ]);
        let f = node(&g, "f");
        assert_eq!(g.fns[f.calls[0].callee.unwrap()].qualified, "Core::route_raw");
    }

    #[test]
    fn unique_method_resolves_same_file_preferred() {
        let g = graph_of(&[
            ("a.rs", "impl A {\n    fn drain_batch(&self) {}\n    fn go(&self) { self.drain_batch(); }\n}\n"),
            ("b.rs", "impl B {\n    fn drain_batch(&self) {}\n}\n"),
        ]);
        let go = node(&g, "A::go");
        let callee = go.calls[0].callee.unwrap();
        assert_eq!(g.fns[callee].qualified, "A::drain_batch");
    }

    #[test]
    fn ambiguous_method_names_do_not_resolve() {
        let g = graph_of(&[(
            "a.rs",
            "impl A {\n    fn new() -> A { A }\n}\nfn f() { let a = A::new(); a.lock(); }\n",
        )]);
        let f = node(&g, "f");
        let lock = f.calls.iter().find(|c| c.name == "lock").unwrap();
        assert!(lock.callee.is_none());
        assert!(lock.is_method);
        assert!(lock.args_empty);
    }

    #[test]
    fn receiver_chain_and_arity() {
        let g = graph_of(&[(
            "a.rs",
            "fn f(s: &S) {\n    s.inner.state.lock();\n    s.sock.read(&mut buf);\n}\n",
        )]);
        let f = node(&g, "f");
        let lock = f.calls.iter().find(|c| c.name == "lock").unwrap();
        assert_eq!(lock.receiver, "s.inner.state");
        assert!(lock.args_empty);
        let read = f.calls.iter().find(|c| c.name == "read").unwrap();
        assert!(!read.args_empty);
        assert_eq!(read.line, 3);
    }

    #[test]
    fn indexed_receiver_drops_the_index() {
        let g = graph_of(&[(
            "a.rs",
            "fn f(s: &S, i: usize) { s.shards[i % N].read(); }\n",
        )]);
        let f = node(&g, "f");
        let read = f.calls.iter().find(|c| c.name == "read").unwrap();
        assert_eq!(read.receiver, "s.shards");
        assert!(read.args_empty);
    }

    #[test]
    fn macros_are_not_calls_but_their_args_are_scanned() {
        let g = graph_of(&[(
            "a.rs",
            "fn target() {}\nfn f() { println!(\"{}\", target()); vec![target()]; }\n",
        )]);
        let f = node(&g, "f");
        assert!(f.calls.iter().all(|c| c.name != "println" && c.name != "vec"));
        assert_eq!(f.calls.iter().filter(|c| c.name == "target").count(), 2);
        assert!(f.calls.iter().all(|c| c.callee.is_some()));
    }

    #[test]
    fn test_items_excluded_from_graph() {
        let g = graph_of(&[(
            "a.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn enqueue() {}\n    #[test]\n    fn t() { enqueue(); }\n}\n",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "real");
    }

    #[test]
    fn turbofish_call() {
        let g = graph_of(&[("a.rs", "fn f() { parse_as::<u32>(x); }\n")]);
        let f = node(&g, "f");
        assert_eq!(f.calls[0].name, "parse_as");
    }
}
