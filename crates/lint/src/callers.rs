//! `pub-without-caller`, the one rule that looks across files: a `pub`
//! item whose name no other file's non-test code names (a re-export is
//! not a caller). A type its own file names only in its definition and
//! `impl` headers counts too; one reached through a signature does not.
//! A shared name hides an item: the rule may miss one, never a live one.

use std::collections::{HashMap, HashSet};

use crate::lexer::is_ident_byte;
use crate::parser::ParsedFile;

/// Methods of std traits: an inherent `pub fn` of one of these names
/// may be reached through the trait's protocol, so it is never reported.
const STD_TRAIT_METHODS: &str = "clone fmt eq cmp partial_cmp hash default drop deref \
    deref_mut from into try_from from_str as_ref as_mut borrow next into_iter from_iter extend \
    index read write";

/// The item keywords the rule reports, and whether each names a type.
fn item_kind(word: &str) -> Option<bool> {
    match word {
        "fn" | "const" | "static" => Some(false),
        "struct" | "enum" | "union" | "trait" | "type" => Some(true),
        _ => None,
    }
}

/// One file's caller words and its `pub` items that need an outside caller.
pub(crate) struct Scan<'a> {
    words: Vec<&'a str>,
    /// `(line, name)` of each `pub` item its own file does not reach.
    items: Vec<(usize, &'a str)>,
}

/// A word of code with its 1-based line and byte offset.
struct Word<'a> {
    line: usize,
    at: usize,
    text: &'a str,
}

/// The identifiers of `code`, in order (numbers are not identifiers).
fn words_of(code: &str) -> Vec<Word<'_>> {
    let b = code.as_bytes();
    let (mut out, mut line, mut i) = (Vec::new(), 1, 0);
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
        }
        if !is_ident_byte(b[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        if !b[start].is_ascii_digit() {
            out.push(Word {
                line,
                at: start,
                text: &code[start..i],
            });
        }
    }
    out
}

/// Reads one file: its caller words and its candidate items.
pub(crate) fn scan(parsed: &ParsedFile) -> Scan<'_> {
    let code = parsed.stripped.code.as_str();
    let all: Vec<Word> = words_of(code)
        .into_iter()
        .filter(|w| !parsed.is_test_line(w.line))
        .collect();
    // Only whitespace (or a blanked string, as in `extern "C"`) between
    // two words makes them one phrase.
    let adjacent = |k: usize| {
        all.get(k + 1)
            .is_some_and(|n| code[all[k].at + all[k].text.len()..n.at].trim().is_empty())
    };
    let mut words = Vec::with_capacity(all.len());
    // `(word index of the name, is a type)` of each `pub` item.
    let mut defs = Vec::new();
    // Words that name a type without reaching it: definitions and `impl` headers.
    let mut unreached = vec![false; all.len()];
    let mut k = 0;
    while k < all.len() {
        let w = &all[k];
        let public = w.text == "pub" && !code[w.at + 3..].trim_start().starts_with('(');
        if public && adjacent(k) && all[k + 1].text == "use" {
            // A re-export names what it exports; it does not call it,
            // unless it renames it (`Item as Alias`): callers use the alias.
            let end = code[w.at..].find(';').map_or(code.len(), |e| w.at + e);
            while k < all.len() && all[k].at < end {
                unreached[k] = true;
                if all.get(k + 1).is_some_and(|n| n.text == "as") {
                    words.push(all[k].text);
                }
                k += 1;
            }
            continue;
        }
        if public && adjacent(k) && all[k + 1].text == "mod" {
            k += 3;
            continue;
        }
        // An `impl` block starts an item; `impl Trait` in a type does not.
        let before = code[..w.at].trim_end();
        let item_start = before.is_empty() || before.ends_with(['}', ';', '{', ']']);
        if w.text == "impl" && (item_start || before.ends_with("unsafe")) {
            let end = code[w.at..]
                .find(['{', ';'])
                .map_or(code.len(), |e| w.at + e);
            let mut j = k;
            while j < all.len() && all[j].at < end {
                unreached[j] = true;
                j += 1;
            }
        }
        if public {
            let mut j = k + 1;
            while adjacent(j - 1)
                && (matches!(all[j].text, "async" | "unsafe" | "extern")
                    || (all[j].text == "const" && adjacent(j) && all[j + 1].text == "fn"))
            {
                j += 1;
            }
            if let Some(is_type) = adjacent(j - 1).then(|| item_kind(all[j].text)).flatten() {
                if adjacent(j) && all[j + 1].text == "mut" {
                    j += 1;
                }
                if adjacent(j) {
                    unreached[j + 1] = true;
                    defs.push((j + 1, is_type));
                }
            }
        }
        words.push(w.text);
        k += 1;
    }
    let reached: HashSet<&str> = all
        .iter()
        .zip(&unreached)
        .filter(|(_, &skip)| !skip)
        .map(|(w, _)| w.text)
        .collect();
    let items = defs
        .into_iter()
        .filter(|&(d, is_type)| {
            let name = all[d].text;
            if is_type {
                !reached.contains(name)
            } else {
                !STD_TRAIT_METHODS.split_whitespace().any(|m| m == name)
            }
        })
        .map(|(d, _)| (all[d].line, all[d].text))
        .collect();
    Scan { words, items }
}

/// Per word, the first file (by index) that names it and whether any
/// other file does too: built once, in one pass over every reader.
pub(crate) fn index<'a>(scans: &[Scan<'a>]) -> HashMap<&'a str, (usize, bool)> {
    let mut seen: HashMap<&str, (usize, bool)> = HashMap::new();
    for (file, s) in scans.iter().enumerate() {
        for &w in &s.words {
            let (first, more) = seen.entry(w).or_insert((file, false));
            *more |= *first != file;
        }
    }
    seen
}

/// The lines of file `file`'s `pub` items that no other file names.
pub(crate) fn uncalled(
    file: usize,
    scan: &Scan,
    seen: &HashMap<&str, (usize, bool)>,
) -> Vec<usize> {
    scan.items
        .iter()
        .filter(|(_, name)| {
            seen.get(name)
                .is_none_or(|&(first, more)| first == file && !more)
        })
        .map(|&(line, _)| line)
        .collect()
}
