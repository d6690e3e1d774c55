//! Which lines are test code, on top of [`crate::lexer`].
//!
//! The lexer blanks strings and comments; this module tracks scopes on
//! the blanked code to find the lines under `#[cfg(test)]` / `#[test]`
//! items, which every rule exempts.
//!
//! This is deliberately *not* a Rust grammar. It is a scope tracker:
//! braces open and close scopes, and a scope opened by an item keyword
//! (`fn` / `mod` / `impl` / `trait`) under a test attribute is test
//! code, from the test attribute's line to its closing brace. That stays
//! dependency-free (no rustc, no syn — the linter must never break the
//! build for environmental reasons).

use crate::lexer::{strip, Stripped};

/// A parsed file: the stripped source plus its test lines.
#[derive(Debug)]
pub struct ParsedFile {
    /// Blanked code + comments (see [`crate::lexer::strip`]).
    pub stripped: Stripped,
    /// Per-line flag (index 0 = line 1): the line lies inside an item
    /// marked `#[cfg(test)]` / `#[test]`, including the attribute line
    /// itself.
    pub test_lines: Vec<bool>,
}

impl ParsedFile {
    /// Whether 1-based `line` is test collateral.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// Does an attribute body mark its item as test collateral?
fn attr_is_test(attr: &str) -> bool {
    let a = attr.trim();
    a == "test" || a.ends_with("::test") || (a.starts_with("cfg") && a.contains("test"))
}

/// Marks lines `from..=to` (1-based) as test code.
fn mark(test_lines: &mut [bool], from: usize, to: usize) {
    for t in test_lines.iter_mut().take(to).skip(from - 1) {
        *t = true;
    }
}

/// Parses one file. `source` is the original text; stripping is done
/// internally so callers get the [`Stripped`] back alongside.
pub fn parse(source: &str) -> ParsedFile {
    let stripped = strip(source);
    let code = stripped.code.as_str();
    let b = code.as_bytes();
    let mut test_lines = vec![false; code.lines().count().max(1)];
    // Per open brace: the line of its test attribute, when it opens a
    // test item.
    let mut scopes: Vec<Option<usize>> = Vec::new();
    // An item keyword has been seen and its `{` (or `;`) is still ahead.
    let mut item_pending = false;
    // The line of the first test attribute since the last `{` or `;`.
    let mut test_attr: Option<usize> = None;

    let mut i = 0usize;
    let mut line = 1usize;

    while i < b.len() {
        match b[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'#' if b.get(i + 1) == Some(&b'[') => {
                // Attribute: capture balanced brackets.
                let start_line = line;
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < b.len() {
                    match b[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        b'\n' => line += 1,
                        _ => {}
                    }
                    j += 1;
                }
                if test_attr.is_none() && attr_is_test(&code[i + 2..j.min(code.len())]) {
                    test_attr = Some(start_line);
                }
                i = j + 1;
            }
            b'{' => {
                scopes.push(test_attr.filter(|_| item_pending));
                (item_pending, test_attr) = (false, None);
                i += 1;
            }
            b'}' => {
                if let Some(Some(from)) = scopes.pop() {
                    mark(&mut test_lines, from, line);
                }
                i += 1;
            }
            b';' => {
                // Statement boundary: bodyless items and attrs resolve.
                (item_pending, test_attr) = (false, None);
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                match &code[start..i] {
                    "mod" | "impl" | "trait" => item_pending = true,
                    // `fn` as a *type* (`fn(u8) -> u8`) has no name.
                    "fn" => {
                        let name = code[i..].trim_start();
                        item_pending |= name.starts_with(|c: char| c.is_alphabetic() || c == '_');
                    }
                    _ => {}
                }
            }
            open @ (b'(' | b'[') if item_pending => {
                // Skip balanced parens/brackets so `{` inside an item
                // header's arguments or array types cannot be mistaken
                // for its body. Outside a pending header the braces are
                // real scopes (closures) — step in normally.
                let close = if open == b'(' { b')' } else { b']' };
                let mut depth = 0i32;
                while i < b.len() {
                    if b[i] == open {
                        depth += 1;
                    } else if b[i] == close {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    } else if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    // Unbalanced tail: close any dangling scopes at EOF.
    for from in scopes.into_iter().flatten() {
        mark(&mut test_lines, from, line);
    }

    ParsedFile {
        stripped,
        test_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_lines(src: &str) -> Vec<usize> {
        let p = parse(src);
        (1..=p.test_lines.len())
            .filter(|&l| p.is_test_line(l))
            .collect()
    }

    #[test]
    fn cfg_test_mod_marks_its_lines_only() {
        let src = "fn serve() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\nfn after() {}\n";
        assert_eq!(test_lines(src), [2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn test_attr_on_fn_marks_it() {
        let src = "#[test]\nfn t() { std::thread::spawn(|| {}); }\nfn real() {}\n";
        assert_eq!(test_lines(src), [1, 2]);
    }

    #[test]
    fn the_test_attribute_opens_the_span() {
        let src = "fn real() {}\n#[allow(dead_code)]\n#[cfg(test)]\nfn helper() {\n}\n";
        assert_eq!(test_lines(src), [3, 4, 5]);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        assert!(test_lines("#[cfg(feature = \"x\")]\nfn gated() {}\n").is_empty());
    }

    #[test]
    fn a_bodyless_item_ends_the_attribute() {
        let src = "#[cfg(test)]\nuse helper::x;\nfn real() {\n}\n";
        assert!(test_lines(src).is_empty());
    }

    #[test]
    fn fn_type_in_signature_is_not_an_item() {
        let src = "#[cfg(test)]\nmod tests {\n    fn takes(cb: fn(u8) -> u8) -> u8 { cb(1) }\n}\nfn real() {}\n";
        assert_eq!(test_lines(src), [1, 2, 3, 4]);
    }

    #[test]
    fn strings_and_comments_cannot_fake_a_test_item() {
        let src = "fn real() {\n    let s = \"#[test] fn fake() {\";\n    // #[cfg(test)] mod fake {\n}\nfn after() {}\n";
        assert!(test_lines(src).is_empty());
    }

    #[test]
    fn closure_braces_inside_a_test_header_stay_inside() {
        let src = "#[test]\nfn f(x: [u8; { 1 }]) {\n    net.listen(move |s| {\n        handle(s);\n    });\n}\nfn g() {}\n";
        assert_eq!(test_lines(src), [1, 2, 3, 4, 5, 6]);
    }
}
