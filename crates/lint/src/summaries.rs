//! Per-function dataflow facts over the call graph.
//!
//! For every workspace function this module computes:
//!
//! * **guard regions** — the byte spans over which an
//!   `OrderedMutex`/`OrderedRwLock` guard is held, with the lock *class*
//!   (the `&'static str` passed to the constructor) recovered from the
//!   original source,
//! * **acquires** — the transitive set of lock classes the function may
//!   acquire, each with a witness (line + callee link),
//! * **blocks** — whether the function can reach an unbounded blocking
//!   sink (condvar wait, blocking queue pop/push, socket IO, thread
//!   join, ...), with a witness chain.
//!
//! Lock classes are tied to *fields*: `state: OrderedMutex::new("fifo_queue.state", ..)`
//! binds field `state` → class `fifo_queue.state` **within that file
//! only** (cross-file field-name collisions would otherwise invent guard
//! regions around unrelated mutexes). Fields whose *declaration* names
//! an `Ordered*` type (`shards: Vec<OrderedRwLock<..>>`) bind to the
//! file's unique class of that kind when the constructor is hidden in a
//! closure.
//!
//! Field declarations also drive a second method-resolution pass:
//! `queue: FifoQueue<Job>` lets `self.shared.queue.push(job)` resolve to
//! `FifoQueue::push` even though `push` is on the ambiguity skip-list —
//! the receiver's field type disambiguates it.

use crate::callgraph::{line_at, line_index, CallSite, Graph};
use crate::lexer::is_ident_byte;
use crate::parser::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};

/// One file handed to [`compute`]: original text + parsed items.
pub struct FileEntry {
    /// Original source text (class strings are read from here).
    pub source: String,
    /// Lexed + item-parsed view of the same text.
    pub parsed: ParsedFile,
}

/// A span over which a lock-class guard is held inside one function.
#[derive(Debug, Clone)]
pub struct GuardRegion {
    /// Lock class (`"reactor.thread"`).
    pub class: String,
    /// Guard variable for `let g = x.lock();` bindings (enables the
    /// guard-own `g.wait(..)` exemption and `drop(g)` truncation).
    pub binding: Option<String>,
    /// Byte span `[start, end)` in the blanked code.
    pub start: usize,
    /// Exclusive end of the span.
    pub end: usize,
    /// 1-based line of the acquisition.
    pub line: usize,
}

/// How a function comes to acquire a lock class.
#[derive(Debug, Clone)]
pub struct AcqWitness {
    /// Line of the direct acquisition, or of the call that leads to it.
    pub line: usize,
    /// Callee (graph index) the acquisition happens through, if not
    /// direct.
    pub via: Option<usize>,
}

/// How a function comes to block.
#[derive(Debug, Clone)]
pub struct BlockWitness {
    /// Sink description (`"condvar wait"`), stable through the chain.
    pub desc: &'static str,
    /// Line of the direct sink, or of the call that leads to it.
    pub line: usize,
    /// Callee (graph index) the block happens through, if not direct.
    pub via: Option<usize>,
}

/// Facts for one function (parallel to [`Graph::fns`]).
#[derive(Debug, Default)]
pub struct FnFacts {
    /// Guard regions opened directly in this fn's body.
    pub regions: Vec<GuardRegion>,
    /// Transitive closure: class -> witness.
    pub acquires: BTreeMap<String, AcqWitness>,
    /// Reachable unbounded blocking sink, if any.
    pub blocks: Option<BlockWitness>,
}

/// Workspace-wide facts.
#[derive(Debug, Default)]
pub struct Facts {
    /// Parallel to `graph.fns`.
    pub fns: Vec<FnFacts>,
    /// file -> lock field -> class.
    pub field_classes: BTreeMap<String, BTreeMap<String, String>>,
    /// Every lock class seen in the workspace.
    pub classes: BTreeSet<String>,
}

/// Unbounded blocking sinks, by call-site shape. Bounded waits
/// (`wait_timeout`, `pop_timeout`, `try_*`) are deliberately absent.
pub fn sink_desc(c: &CallSite) -> Option<&'static str> {
    let last_seg = c.receiver.rsplit('.').next().unwrap_or("");
    match c.name.as_str() {
        "wait" => Some("unbounded condvar/latch wait"),
        "pop" if c.args_empty && c.is_method => Some("blocking queue pop"),
        "pop_batch" => Some("blocking queue pop"),
        "push" if c.is_method && last_seg == "queue" => Some("blocking queue push"),
        "recv" if c.args_empty => Some("blocking channel recv"),
        "read" | "write" if c.is_method && !c.args_empty => Some("blocking socket IO"),
        "read_exact" | "read_to_end" | "write_all" | "flush" => Some("blocking socket IO"),
        "connect" => Some("blocking connect"),
        "accept" if c.args_empty => Some("blocking accept"),
        "call" | "call_pipelined" => Some("blocking RPC call"),
        "join" if c.args_empty && c.is_method => Some("thread join"),
        "sleep" => Some("sleep"),
        _ => None,
    }
}

/// Whether a call site is the guard-own condvar wait of `binding` (the
/// guard is *released* while parked, so it is exempt inside its own
/// region).
pub fn is_guard_own_wait(c: &CallSite, binding: Option<&String>) -> bool {
    matches!(c.name.as_str(), "wait" | "wait_timeout" | "wait_until")
        && binding.is_some_and(|b| c.receiver == *b)
}

/// Word-boundary `contains`.
pub fn contains_word(hay: &str, word: &str) -> bool {
    let h = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(word) {
        let s = from + pos;
        let e = s + word.len();
        let left_ok = s == 0 || !is_ident_byte(h[s - 1]);
        let right_ok = e >= h.len() || !is_ident_byte(h[e]);
        if left_ok && right_ok {
            return true;
        }
        from = e;
    }
    false
}

/// Backscan to the statement boundary before `offset`: the byte after
/// the closest of the `boundary` characters.
fn stmt_start(code: &str, floor: usize, offset: usize, boundary: &[u8]) -> usize {
    let b = code.as_bytes();
    let mut i = offset;
    while i > floor {
        if boundary.contains(&b[i - 1]) {
            return i;
        }
        i -= 1;
    }
    floor
}

/// Matching `}` (offset, exclusive end is `+1`) of the innermost `{`
/// containing `offset` within `span`; falls back to `span.1`.
fn enclosing_block_end(code: &str, span: (usize, usize), offset: usize) -> usize {
    let b = code.as_bytes();
    let mut stack: Vec<usize> = Vec::new();
    let mut i = span.0;
    while i < span.1 {
        match b[i] {
            b'{' => stack.push(i),
            b'}' => {
                // First close at/after `offset` whose open was before
                // it is the innermost enclosing block's close.
                if let Some(open) = stack.pop() {
                    if i >= offset && open <= offset {
                        return i;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    span.1
}

/// Brace depth of `offset` relative to the start of `span`.
fn brace_depth(code: &str, span: (usize, usize), offset: usize) -> i32 {
    let b = code.as_bytes();
    let mut depth = 0i32;
    let mut i = span.0;
    while i < offset.min(span.1) {
        match b[i] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    depth
}

/// First `{` after `from` at paren/bracket depth 0, then its matching
/// `}` — the body of an `if let`/`while let`/`match`/`for` construct.
fn construct_block_end(code: &str, from: usize, limit: usize) -> usize {
    let b = code.as_bytes();
    let mut pd = 0i32;
    let mut i = from;
    while i < limit {
        match b[i] {
            b'(' | b'[' => pd += 1,
            b')' | b']' => pd -= 1,
            b'{' if pd == 0 => {
                // Match it.
                let mut depth = 0i32;
                let mut j = i;
                while j < limit {
                    match b[j] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                return j;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return limit;
            }
            b';' if pd == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    limit
}

/// End of a statement-scoped guard: next `;`, `,`, or `{` at relative
/// depth 0, or where the enclosing block closes.
fn stmt_end(code: &str, from: usize, limit: usize) -> usize {
    let b = code.as_bytes();
    let mut pd = 0i32;
    let mut bd = 0i32;
    let mut i = from;
    while i < limit {
        match b[i] {
            b'(' | b'[' => pd += 1,
            // Clamp at 0: `from` may start *inside* enclosing parens
            // (`take(&mut *x.lock())`) — the closes that exit them must
            // not mask the statement's `;`.
            b')' | b']' => pd = (pd - 1).max(0),
            b'{' => {
                if pd == 0 {
                    return i;
                }
                bd += 1;
            }
            b'}' => {
                bd -= 1;
                if bd < 0 {
                    return i;
                }
            }
            b';' | b',' if pd == 0 && bd == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    limit
}

/// Binding ident after `let` in a statement slice (`let mut g = ...` →
/// `g`).
pub fn let_binding(slice: &str) -> Option<String> {
    let b = slice.as_bytes();
    let mut pos = None;
    let mut from = 0;
    while let Some(p) = slice[from..].find("let") {
        let s = from + p;
        let e = s + 3;
        if (s == 0 || !is_ident_byte(b[s - 1])) && (e >= b.len() || !is_ident_byte(b[e])) {
            pos = Some(e);
        }
        from = e;
    }
    let mut i = pos?;
    loop {
        while i < b.len() && (b[i] as char).is_whitespace() {
            i += 1;
        }
        let s = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        if s == i {
            return None;
        }
        let word = &slice[s..i];
        if word == "mut" {
            continue;
        }
        return Some(word.to_string());
    }
}

/// Strips container wrappers and returns the base type name of a field
/// declaration's type text (`Vec<OrderedRwLock<HashMap<K, V>>>` →
/// `OrderedRwLock`, `Arc<FifoQueue<Job>>` → `FifoQueue`).
fn base_type(mut s: &str) -> Option<String> {
    const WRAPPERS: &[&str] = &["Arc", "Rc", "Box", "Vec", "Option", "RefCell", "Cell"];
    loop {
        let s2 = s.trim().trim_start_matches('&').trim();
        let lt = s2.find('<');
        let head_end = lt.unwrap_or(s2.len());
        let head_full = s2[..head_end].trim();
        let head = head_full.rsplit("::").next().unwrap_or(head_full).trim();
        if head.is_empty() || !head.chars().next().is_some_and(|c| c.is_uppercase()) {
            return None;
        }
        match lt {
            Some(p) if WRAPPERS.contains(&head) => {
                // Unwrap one generic layer: inner of the matching '>'.
                let b = s2.as_bytes();
                let mut depth = 0i32;
                let mut j = p;
                while j < b.len() {
                    match b[j] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j <= p + 1 || j > s2.len() {
                    return None;
                }
                s = &s2[p + 1..j];
            }
            _ => return Some(head.to_string()),
        }
    }
}

/// Per-file field declarations: `queue: FifoQueue<Job>,` → `queue` →
/// `FifoQueue`. Works on the blanked code line by line; expression
/// lines (containing `(`/`"`/`=`) are rejected.
fn field_type_decls(code: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for line in code.lines() {
        // Single-line structs (`struct M { shards: Vec<..> }`): look at
        // the text after the last `{`.
        let mut t = match line.rfind('{') {
            Some(p) => line[p + 1..].trim(),
            None => line.trim(),
        };
        if let Some(rest) = t.strip_prefix("pub") {
            let rest = rest.trim_start();
            t = if let Some(r2) = rest.strip_prefix('(') {
                match r2.find(')') {
                    Some(p) => r2[p + 1..].trim_start(),
                    None => continue,
                }
            } else {
                rest
            };
        }
        let b = t.as_bytes();
        let mut i = 0;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        if i == 0 {
            continue;
        }
        let name = &t[..i];
        let rest = t[i..].trim_start();
        // `name: Type` but not `name::path`.
        let Some(ty) = rest.strip_prefix(':') else {
            continue;
        };
        if ty.starts_with(':') {
            continue;
        }
        let ty = ty
            .trim()
            .trim_end_matches(',')
            .trim_end_matches(|ch: char| ch == '}' || ch.is_whitespace())
            .trim_end_matches(',')
            .trim_end_matches(')')
            .trim();
        if ty.is_empty() || ty.contains('(') || ty.contains('=') || ty.contains(';') {
            continue;
        }
        if let Some(base) = base_type(ty) {
            out.entry(name.to_string()).or_insert(base);
        }
    }
    out
}

/// Reads the class string of an `Ordered*::new("class", ..)` call from
/// the *original* source line (the string is blanked in stripped code).
/// The call's column disambiguates two constructors sharing a line:
/// the class is the first quoted string at/after the call name.
fn class_string(files: &BTreeMap<String, FileEntry>, file: &str, c: &CallSite) -> Option<String> {
    let entry = files.get(file)?;
    let code = &entry.parsed.stripped.code;
    let line_start = code[..c.offset].rfind('\n').map(|p| p + 1).unwrap_or(0);
    let col = c.offset - line_start;
    let text = entry.source.lines().nth(c.line.saturating_sub(1))?;
    // Non-ASCII earlier in the line can shift byte columns between the
    // blanked and original text; fall back to the whole line then.
    let rest = text.get(col.min(text.len())..).unwrap_or(text);
    let q1 = rest.find('"')?;
    let rest = &rest[q1 + 1..];
    let q2 = rest.find('"')?;
    Some(rest[..q2].to_string())
}

/// Argument-less methods that acquire an `Ordered*` lock when called
/// on a field of a known lock class.
pub(crate) const ACQUIRE_METHODS: &[&str] =
    &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Computes workspace facts; also runs the field-type-driven second
/// resolution pass over `graph` (mutating unresolved call sites).
pub fn compute(files: &BTreeMap<String, FileEntry>, graph: &mut Graph) -> Facts {
    let mut facts = Facts::default();

    // ---- lock classes & field types, per file -----------------------
    let mut field_types_by_file: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    // (file, kind) -> classes constructed there.
    let mut classes_by_file_kind: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();

    for f in &graph.fns {
        let Some(entry) = files.get(&f.file) else {
            continue;
        };
        let code = &entry.parsed.stripped.code;
        for c in &f.calls {
            let Some(q) = &c.qualifier else { continue };
            if c.name != "new" || (q != "OrderedMutex" && q != "OrderedRwLock") {
                continue;
            }
            let Some(class) = class_string(files, &f.file, c) else {
                continue;
            };
            facts.classes.insert(class.clone());
            classes_by_file_kind
                .entry((f.file.clone(), q.clone()))
                .or_default()
                .insert(class.clone());
            // Field binding: `field: OrderedMutex::new(..)` struct
            // literal, or `let field = OrderedMutex::new(..)`.
            let ss = stmt_start(code, 0, c.offset, b";{},(");
            let mut slice = code[ss..c.offset].trim_end();
            // Drop trailing path segments (`OrderedMutex::`).
            loop {
                let t = slice.trim_end();
                if let Some(rest) = t.strip_suffix("::") {
                    let rest = rest.trim_end();
                    let cut = rest
                        .rfind(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                        .map(|p| p + 1)
                        .unwrap_or(0);
                    slice = &rest[..cut];
                } else {
                    slice = t;
                    break;
                }
            }
            let field = if let Some(rest) = slice.strip_suffix(':') {
                let rest = rest.trim_end();
                let cut = rest
                    .rfind(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                    .map(|p| p + 1)
                    .unwrap_or(0);
                let id = &rest[cut..];
                (!id.is_empty()).then(|| id.to_string())
            } else {
                contains_word(slice, "let").then(|| let_binding(slice)).flatten()
            };
            if let Some(field) = field {
                facts
                    .field_classes
                    .entry(f.file.clone())
                    .or_default()
                    .entry(field)
                    .or_insert(class);
            }
        }
    }

    for (path, entry) in files {
        let decls = field_type_decls(&entry.parsed.stripped.code);
        // Fields *declared* as Ordered types bind to the file's unique
        // class of that kind when the constructor hid the field (e.g.
        // built inside a closure).
        for (field, ty) in &decls {
            if ty == "OrderedMutex" || ty == "OrderedRwLock" {
                let classes = classes_by_file_kind
                    .get(&(path.clone(), ty.clone()))
                    .cloned()
                    .unwrap_or_default();
                if classes.len() == 1 {
                    facts
                        .field_classes
                        .entry(path.clone())
                        .or_default()
                        .entry(field.clone())
                        .or_insert_with(|| classes.iter().next().unwrap().clone());
                }
            }
        }
        field_types_by_file.insert(path.clone(), decls);
    }

    // Globally-unique field -> type map for cross-file receivers.
    let mut global_field_types: BTreeMap<String, Option<String>> = BTreeMap::new();
    for decls in field_types_by_file.values() {
        for (field, ty) in decls {
            global_field_types
                .entry(field.clone())
                .and_modify(|v| {
                    if v.as_deref() != Some(ty) {
                        *v = None;
                    }
                })
                .or_insert_with(|| Some(ty.clone()));
        }
    }

    // ---- second resolution pass: receiver field type ----------------
    let mut methods_by_qualified: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        methods_by_qualified.entry(f.qualified.clone()).or_default().push(i);
    }
    let mut late: Vec<(usize, usize, usize)> = Vec::new();
    for (fi, f) in graph.fns.iter().enumerate() {
        let local = field_types_by_file.get(&f.file);
        for (ci, c) in f.calls.iter().enumerate() {
            if c.callee.is_some() || !c.is_method || c.receiver.is_empty() {
                continue;
            }
            let last_seg = c.receiver.rsplit('.').next().unwrap_or("");
            let ty = local
                .and_then(|m| m.get(last_seg))
                .cloned()
                .or_else(|| global_field_types.get(last_seg).cloned().flatten());
            let Some(ty) = ty else { continue };
            let key = format!("{ty}::{}", c.name);
            if let Some(v) = methods_by_qualified.get(&key) {
                if v.len() == 1 && v[0] != fi {
                    late.push((fi, ci, v[0]));
                }
            }
        }
    }
    for (fi, ci, t) in late {
        graph.fns[fi].calls[ci].callee = Some(t);
    }

    // ---- per-fn direct facts ----------------------------------------
    let empty = BTreeMap::new();
    for f in &graph.fns {
        let mut ff = FnFacts::default();
        let Some(entry) = files.get(&f.file) else {
            facts.fns.push(ff);
            continue;
        };
        let code = &entry.parsed.stripped.code;
        let classes = facts.field_classes.get(&f.file).unwrap_or(&empty);
        let span = entry.parsed.fns[f.local_idx].body.unwrap_or((0, 0));

        for c in &f.calls {
            // Guard regions from acquisitions.
            if ACQUIRE_METHODS.contains(&c.name.as_str()) && c.args_empty && c.is_method {
                let last_seg = c.receiver.rsplit('.').next().unwrap_or("");
                if let Some(class) = classes.get(last_seg) {
                    let ss = stmt_start(code, span.0, c.offset, b";{}");
                    let slice = &code[ss..c.offset];
                    let is_construct = contains_word(slice, "if")
                        && contains_word(slice, "let")
                        || contains_word(slice, "while")
                        || contains_word(slice, "match")
                        || contains_word(slice, "for");
                    let next_ch = code[c.args_end..span.1]
                        .bytes()
                        .find(|b| !(*b as char).is_whitespace());
                    let (binding, end) = if is_construct {
                        (None, construct_block_end(code, c.args_end, span.1))
                    } else if next_ch == Some(b';') && contains_word(slice, "let") {
                        match let_binding(slice) {
                            Some(b) if b != "_" => {
                                let mut end = enclosing_block_end(code, span, c.offset);
                                // Same-depth `drop(binding)` truncates.
                                let depth = brace_depth(code, span, c.offset);
                                for d in &f.calls {
                                    if d.name == "drop"
                                        && d.offset > c.offset
                                        && d.offset < end
                                        && brace_depth(code, span, d.offset) == depth
                                    {
                                        let inner = code
                                            [d.offset..d.args_end]
                                            .trim_start_matches(|ch: char| ch != '(');
                                        let arg = inner
                                            .trim_start_matches('(')
                                            .trim_end_matches(')')
                                            .trim();
                                        if arg == b {
                                            end = end.min(d.offset);
                                        }
                                    }
                                }
                                (Some(b), end)
                            }
                            _ => (None, stmt_end(code, c.args_end, span.1)),
                        }
                    } else {
                        (None, stmt_end(code, c.args_end, span.1))
                    };
                    ff.regions.push(GuardRegion {
                        class: class.clone(),
                        binding,
                        start: c.args_end,
                        end,
                        line: c.line,
                    });
                    ff.acquires.entry(class.clone()).or_insert(AcqWitness {
                        line: c.line,
                        via: None,
                    });
                }
            }
            // Direct blocking sinks. When the sink call resolved to a
            // workspace fn (field-type pass), thread the chain through
            // it — the witness then names the callee, not just the line.
            if ff.blocks.is_none() {
                if let Some(desc) = sink_desc(c) {
                    ff.blocks = Some(BlockWitness {
                        desc,
                        line: c.line,
                        via: c.callee,
                    });
                }
            }
        }
        facts.fns.push(ff);
    }

    // ---- fixpoints over resolved calls ------------------------------
    loop {
        let mut changed = false;
        for fi in 0..graph.fns.len() {
            for ci in 0..graph.fns[fi].calls.len() {
                let (line, callee) = {
                    let c = &graph.fns[fi].calls[ci];
                    (c.line, c.callee)
                };
                let Some(t) = callee else { continue };
                if t == fi {
                    continue;
                }
                // acquires
                let inherited: Vec<String> = facts.fns[t]
                    .acquires
                    .keys()
                    .filter(|k| !facts.fns[fi].acquires.contains_key(*k))
                    .cloned()
                    .collect();
                for class in inherited {
                    facts.fns[fi].acquires.insert(
                        class,
                        AcqWitness {
                            line,
                            via: Some(t),
                        },
                    );
                    changed = true;
                }
                // blocks
                if facts.fns[fi].blocks.is_none() {
                    if let Some(bw) = &facts.fns[t].blocks {
                        facts.fns[fi].blocks = Some(BlockWitness {
                            desc: bw.desc,
                            line,
                            via: Some(t),
                        });
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    facts
}

/// Renders a call-chain witness for a blocking fact: follow `via` links
/// until the direct sink.
pub fn block_chain(graph: &Graph, facts: &Facts, fi: usize) -> String {
    let mut parts = Vec::new();
    let mut cur = fi;
    let mut guard = 0;
    while let Some(bw) = &facts.fns[cur].blocks {
        let f = &graph.fns[cur];
        parts.push(format!("{} ({}:{})", f.qualified, f.file, bw.line));
        match bw.via {
            // Follow only into callees that themselves carry a blocks
            // fact (a direct sink's resolved callee may not).
            Some(next) if guard < 16 && facts.fns[next].blocks.is_some() => {
                cur = next;
                guard += 1;
            }
            _ => {
                parts.push(bw.desc.to_string());
                break;
            }
        }
    }
    parts.join(" -> ")
}

/// Renders a call-chain witness for an acquisition fact.
pub fn acquire_chain(graph: &Graph, facts: &Facts, fi: usize, class: &str) -> String {
    let mut parts = Vec::new();
    let mut cur = fi;
    let mut guard = 0;
    while let Some(aw) = facts.fns[cur].acquires.get(class) {
        let f = &graph.fns[cur];
        parts.push(format!("{} ({}:{})", f.qualified, f.file, aw.line));
        match aw.via {
            Some(next) if guard < 16 => {
                cur = next;
                guard += 1;
            }
            _ => {
                parts.push(format!("acquires `{class}`"));
                break;
            }
        }
    }
    parts.join(" -> ")
}

/// Maps each call site's offset to a line using the stripped code (used
/// by rules that need per-region call filtering).
pub fn region_calls<'g>(
    f: &'g crate::callgraph::FnNode,
    region: &GuardRegion,
) -> impl Iterator<Item = &'g CallSite> {
    let (start, end) = (region.start, region.end);
    f.calls
        .iter()
        .filter(move |c| c.offset >= start && c.offset < end)
}

/// Convenience for tests: line lookup for offsets.
pub fn offset_line(code: &str, offset: usize) -> usize {
    let idx = line_index(code);
    line_at(&idx, offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parser::parse;

    fn setup(files: &[(&str, &str)]) -> (BTreeMap<String, FileEntry>, Graph, Facts) {
        let map: BTreeMap<String, FileEntry> = files
            .iter()
            .map(|(p, s)| {
                (
                    p.to_string(),
                    FileEntry {
                        source: s.to_string(),
                        parsed: parse(s),
                    },
                )
            })
            .collect();
        let mut graph = build(map.iter().map(|(p, e)| (p.as_str(), &e.parsed)));
        let facts = compute(&map, &mut graph);
        (map, graph, facts)
    }

    fn fidx(graph: &Graph, q: &str) -> usize {
        graph.fns.iter().position(|f| f.qualified == q).unwrap()
    }

    const QUEUE_SRC: &str = r#"
struct Inner { items: Vec<u8> }
struct Shared { state: OrderedMutex<Inner>, not_empty: Condvar }
struct FifoQueue { inner: Arc<Shared> }
impl FifoQueue {
    fn new() -> FifoQueue {
        FifoQueue { inner: Arc::new(Shared {
            state: OrderedMutex::new("fifo_queue.state", Inner { items: Vec::new() }),
            not_empty: Condvar::new(),
        }) }
    }
    fn pop(&self) -> u8 {
        let mut st = self.inner.state.lock();
        while st.items.is_empty() {
            st.wait(&self.inner.not_empty);
        }
        st.items.remove(0)
    }
}
"#;

    #[test]
    fn lock_class_binds_field_and_builds_region() {
        let (_m, graph, facts) = setup(&[("crates/x/src/queue.rs", QUEUE_SRC)]);
        let pop = fidx(&graph, "FifoQueue::pop");
        let ff = &facts.fns[pop];
        assert_eq!(ff.regions.len(), 1);
        let r = &ff.regions[0];
        assert_eq!(r.class, "fifo_queue.state");
        assert_eq!(r.binding.as_deref(), Some("st"));
        assert!(ff.acquires.contains_key("fifo_queue.state"));
        // pop blocks via the condvar wait...
        assert_eq!(ff.blocks.as_ref().unwrap().desc, "unbounded condvar/latch wait");
        // ...but the wait is guard-own: exempt inside its own region.
        let f = &graph.fns[pop];
        let wait = f.calls.iter().find(|c| c.name == "wait").unwrap();
        assert!(is_guard_own_wait(wait, r.binding.as_ref()));
        assert!(region_calls(f, r).any(|c| c.name == "wait"));
    }

    #[test]
    fn guard_consumed_in_statement_gets_statement_region() {
        let src = r#"
struct P { handles: OrderedMutex<Vec<u8>> }
impl P {
    fn new() -> P { P { handles: OrderedMutex::new("pool.handles", Vec::new()) } }
    fn shutdown(&self) {
        let handles: Vec<_> = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            h.join();
        }
    }
}
"#;
        let (m, graph, facts) = setup(&[("crates/x/src/pool.rs", src)]);
        let sd = fidx(&graph, "P::shutdown");
        let ff = &facts.fns[sd];
        assert_eq!(ff.regions.len(), 1);
        let r = &ff.regions[0];
        assert!(r.binding.is_none(), "take() consumes the guard in-statement");
        // join() is OUTSIDE the region.
        let f = &graph.fns[sd];
        let join = f.calls.iter().find(|c| c.name == "join").unwrap();
        assert!(join.offset >= r.end, "join must fall outside the region");
        let code = &m["crates/x/src/pool.rs"].parsed.stripped.code;
        assert!(offset_line(code, r.end) <= join.line);
    }

    #[test]
    fn if_let_scrutinee_guard_spans_the_block() {
        let src = r#"
struct R { thread: OrderedMutex<Option<u8>> }
impl R {
    fn new() -> R { R { thread: OrderedMutex::new("reactor.thread", None) } }
    fn shutdown(&self) {
        if let Some(h) = self.thread.lock().take() {
            h.join();
        }
    }
}
"#;
        let (_m, graph, facts) = setup(&[("crates/x/src/reactor.rs", src)]);
        let sd = fidx(&graph, "R::shutdown");
        let ff = &facts.fns[sd];
        assert_eq!(ff.regions.len(), 1);
        let r = &ff.regions[0];
        assert_eq!(r.class, "reactor.thread");
        let f = &graph.fns[sd];
        let join = f.calls.iter().find(|c| c.name == "join").unwrap();
        assert!(
            join.offset < r.end,
            "join is inside the if-let block: the guard is held"
        );
        assert!(sink_desc(join).is_some());
    }

    #[test]
    fn drop_truncates_binding_region_at_same_depth() {
        let src = r#"
struct S { state: OrderedMutex<u8> }
impl S {
    fn new() -> S { S { state: OrderedMutex::new("s.state", 0) } }
    fn f(&self, sock: &mut Sock) {
        let g = self.state.lock();
        drop(g);
        sock.read_exact(&mut [0u8; 4]);
    }
}
"#;
        let (_m, graph, facts) = setup(&[("crates/x/src/s.rs", src)]);
        let fi = fidx(&graph, "S::f");
        let r = &facts.fns[fi].regions[0];
        let f = &graph.fns[fi];
        let re = f.calls.iter().find(|c| c.name == "read_exact").unwrap();
        assert!(re.offset >= r.end, "read_exact is after drop(g)");
    }

    #[test]
    fn decl_only_ordered_field_binds_unique_class() {
        let src = r#"
struct M { shards: Vec<OrderedRwLock<u8>> }
impl M {
    fn new(n: usize) -> M {
        M { shards: (0..n).map(|_| OrderedRwLock::new("map.shard", 0)).collect() }
    }
    fn get(&self, i: usize) -> u8 {
        let g = self.shards[i].read();
        *g
    }
}
"#;
        let (_m, graph, facts) = setup(&[("crates/x/src/map.rs", src)]);
        let gi = fidx(&graph, "M::get");
        let ff = &facts.fns[gi];
        assert_eq!(ff.regions.len(), 1);
        assert_eq!(ff.regions[0].class, "map.shard");
    }

    #[test]
    fn field_type_second_pass_resolves_queue_push() {
        let files = [
            ("crates/x/src/queue.rs", QUEUE_SRC),
            (
                "crates/x/src/pool.rs",
                r#"
struct Pool { queue: FifoQueue }
impl Pool {
    fn execute(&self) {
        self.queue.pop();
    }
}
"#,
            ),
        ];
        let (_m, graph, facts) = setup(&files);
        let ex = fidx(&graph, "Pool::execute");
        let popcall = graph.fns[ex].calls.iter().find(|c| c.name == "pop").unwrap();
        let pop = fidx(&graph, "FifoQueue::pop");
        assert_eq!(popcall.callee, Some(pop), "field type resolves ambiguous method");
        // And transitive facts flow through it.
        let ff = &facts.fns[ex];
        assert!(ff.acquires.contains_key("fifo_queue.state"));
        assert!(ff.blocks.is_some());
        let chain = block_chain(&graph, &facts, ex);
        assert!(chain.contains("Pool::execute"), "{chain}");
        assert!(chain.contains("FifoQueue::pop"), "{chain}");
    }

    #[test]
    fn bounded_waits_are_not_sinks() {
        let src = r#"
struct S { state: OrderedMutex<u8> }
impl S {
    fn new() -> S { S { state: OrderedMutex::new("s.state", 0) } }
    fn f(&self) {
        let mut g = self.state.lock();
        g.wait_timeout(&cv, timeout);
    }
}
"#;
        let (_m, graph, facts) = setup(&[("crates/x/src/s.rs", src)]);
        let fi = fidx(&graph, "S::f");
        assert!(facts.fns[fi].blocks.is_none());
    }

    #[test]
    fn base_type_unwraps_wrappers() {
        assert_eq!(base_type("Vec<OrderedRwLock<HashMap<K, V>>>").as_deref(), Some("OrderedRwLock"));
        assert_eq!(base_type("Arc<FifoQueue<Job>>").as_deref(), Some("FifoQueue"));
        assert_eq!(base_type("OrderedMutex<Inner>").as_deref(), Some("OrderedMutex"));
        assert_eq!(base_type("usize"), None);
        assert_eq!(base_type("&'static str"), None);
    }
}
