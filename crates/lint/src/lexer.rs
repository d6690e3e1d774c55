//! A minimal Rust lexer that separates *code* from *non-code*.
//!
//! The analyzer only ever matches against code, so the one job of this
//! module is to take Rust source and return a same-shape copy in which
//! every string literal, raw string, byte string, char literal and
//! comment has been blanked out with spaces (newlines preserved, so
//! line/column arithmetic still works), plus the list of comments with
//! their line numbers (suppression directives live in comments).
//!
//! Handled syntax:
//!
//! * line comments `// ...` (including doc comments),
//! * block comments `/* ... */` with arbitrary nesting,
//! * string literals `"..."` with escapes (`\"`, `\\`, `\n`, ...),
//! * raw strings `r"..."`, `r#"..."#`, ... with any number of hashes,
//! * byte strings `b"..."` and raw byte strings `br#"..."#`,
//! * char and byte-char literals `'a'`, `'\''`, `b'x'`,
//! * lifetimes (`'static`, `'_`, `'a`) — *not* treated as char openers.
//!
//! Nothing else needs token-level understanding: rules match substrings
//! of the blanked code.

/// One comment captured during stripping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text without the `//` / `/*` delimiters, trimmed.
    pub text: String,
    /// Whether this is a line comment (`//`); block comments attach to
    /// their starting line only.
    pub is_line: bool,
}

/// The result of [`strip`]: blanked code plus extracted comments.
#[derive(Debug, Clone)]
pub struct Stripped {
    /// The source with all non-code bytes replaced by spaces. Newlines
    /// are preserved, so `code.lines()` aligns 1:1 with the original.
    pub code: String,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether byte `c` of blanked code continues an identifier — the one
/// word-boundary predicate every byte-level scanner in the crate shares.
pub fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Strips strings, chars and comments out of `source`.
pub fn strip(source: &str) -> Stripped {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    // The previous *emitted code* character, used to tell a raw-string
    // prefix (`r"`) from an identifier ending in `r` (`hdr"` cannot
    // occur in valid Rust, but `r` inside `for` must not trigger).
    let mut prev_code: char = '\n';

    macro_rules! blank {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
                out.push('\n');
            } else {
                out.push(' ');
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        // Line comment.
        if c == '/' && next == Some('/') {
            let start_line = line;
            let mut text = String::new();
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                out.push(' ');
                i += 1;
            }
            let text = text.trim_start_matches('/').trim().to_string();
            comments.push(Comment {
                line: start_line,
                text,
                is_line: true,
            });
            continue;
        }

        // Block comment (nested).
        if c == '/' && next == Some('*') {
            let start_line = line;
            let mut depth = 0usize;
            let mut text = String::new();
            while i < chars.len() {
                let c = chars[i];
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    blank!(c);
                    i += 1;
                    blank!(chars[i]);
                    i += 1;
                    continue;
                }
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    blank!(c);
                    i += 1;
                    blank!(chars[i]);
                    i += 1;
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                text.push(c);
                blank!(c);
                i += 1;
            }
            comments.push(Comment {
                line: start_line,
                text: text.trim_matches(|c: char| c == '*' || c.is_whitespace()).to_string(),
                is_line: false,
            });
            prev_code = ' ';
            continue;
        }

        // Raw / byte string prefixes: r" r#" br" br#" b" — only when not
        // glued to a preceding identifier character.
        if (c == 'r' || c == 'b') && !is_ident(prev_code) {
            let mut j = i;
            if chars[j] == 'b' && chars.get(j + 1) == Some(&'r') {
                j += 2;
            } else if chars[j] == 'r' || chars[j] == 'b' {
                j += 1;
            }
            let raw = j > i + 1 || chars[i] == 'r';
            let mut hashes = 0usize;
            if raw {
                while chars.get(j + hashes) == Some(&'#') {
                    hashes += 1;
                }
            }
            if chars.get(j + hashes) == Some(&'"') && (raw || chars[i] == 'b') {
                // Emit the prefix blanked, then consume the literal.
                while i < j + hashes {
                    out.push(' ');
                    i += 1;
                }
                // The opening quote.
                out.push(' ');
                i += 1;
                if raw {
                    // Scan for `"` followed by `hashes` hashes.
                    while i < chars.len() {
                        if chars[i] == '"'
                            && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'))
                        {
                            out.push(' ');
                            i += 1;
                            for _ in 0..hashes {
                                out.push(' ');
                                i += 1;
                            }
                            break;
                        }
                        blank!(chars[i]);
                        i += 1;
                    }
                } else {
                    consume_quoted(&chars, &mut i, &mut out, &mut line, '"');
                }
                prev_code = ' ';
                continue;
            }
        }

        // Plain string literal.
        if c == '"' {
            out.push(' ');
            i += 1;
            consume_quoted(&chars, &mut i, &mut out, &mut line, '"');
            prev_code = ' ';
            continue;
        }

        // Char literal vs lifetime. A byte-char `b'x'` arrives here via
        // the `b` branch above only when followed by `"`; handle `b'`
        // directly too.
        if c == '\'' || (c == 'b' && next == Some('\'') && !is_ident(prev_code)) {
            let q = if c == 'b' { i + 1 } else { i };
            let after = chars.get(q + 1).copied();
            let is_lifetime = c == '\''
                && matches!(after, Some(a) if is_ident(a) && a != '\\')
                && chars.get(q + 2).copied() != Some('\'')
                // `'a'` is a char, `'ab` can only be a lifetime; a
                // multi-char body closed by `'` is still a char (e.g.
                // unicode), but identifier-like bodies without a closing
                // quote within 2 chars are lifetimes.
                && !closes_as_char(&chars, q);
            if is_lifetime {
                out.push('\'');
                i += 1;
                prev_code = '\'';
                continue;
            }
            // Char / byte-char literal: blank through the closing quote.
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            out.push(' ');
            i += 1; // past opening quote
            consume_quoted(&chars, &mut i, &mut out, &mut line, '\'');
            prev_code = ' ';
            continue;
        }

        blank_or_emit(&mut out, c, &mut line);
        if !c.is_whitespace() {
            prev_code = c;
        }
        i += 1;
    }

    Stripped {
        code: out,
        comments,
    }
}

/// Whether the quote at `chars[q]` opens a char literal that closes with
/// a `'` after an identifier-like body (e.g. `'é'`, `'a'`) rather than a
/// lifetime. Scans a short bounded window.
fn closes_as_char(chars: &[char], q: usize) -> bool {
    // Body of at most one char: `'X'`.
    chars.get(q + 2) == Some(&'\'')
}

/// Consumes a quoted body (after the opening delimiter) up to and
/// including the closing `delim`, honouring backslash escapes; emits
/// spaces (newlines preserved).
fn consume_quoted(chars: &[char], i: &mut usize, out: &mut String, line: &mut usize, delim: char) {
    while *i < chars.len() {
        let c = chars[*i];
        if c == '\\' {
            // Skip the escape pair.
            if c == '\n' {
                *line += 1;
                out.push('\n');
            } else {
                out.push(' ');
            }
            *i += 1;
            if *i < chars.len() {
                if chars[*i] == '\n' {
                    *line += 1;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                *i += 1;
            }
            continue;
        }
        if c == '\n' {
            *line += 1;
            out.push('\n');
        } else {
            out.push(' ');
        }
        *i += 1;
        if c == delim {
            return;
        }
    }
}

fn blank_or_emit(out: &mut String, c: char, line: &mut usize) {
    if c == '\n' {
        *line += 1;
    }
    out.push(c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comment_is_blanked_and_captured() {
        let s = strip("let x = 1; // thread::spawn here\nlet y = 2;\n");
        assert!(!s.code.contains("thread::spawn"));
        assert!(s.code.contains("let x = 1;"));
        assert!(s.code.contains("let y = 2;"));
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.comments[0].line, 1);
        assert_eq!(s.comments[0].text, "thread::spawn here");
    }

    #[test]
    fn nested_block_comments() {
        let s = strip("a /* x /* Instant::now */ y */ b\n");
        assert!(!s.code.contains("Instant::now"));
        assert!(s.code.contains('a'));
        assert!(s.code.contains('b'));
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn strings_with_escapes() {
        let s = strip(r#"let s = "thread::spawn \" still inside"; call();"#);
        assert!(!s.code.contains("thread::spawn"));
        assert!(s.code.contains("call();"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let s = strip("let s = r#\"Instant::now \" inner\"#; after();\n");
        assert!(!s.code.contains("Instant::now"));
        assert!(s.code.contains("after();"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let s = strip("let a = b\"SystemTime::now\"; let b2 = br#\"x \" y\"#; tail();\n");
        assert!(!s.code.contains("SystemTime::now"));
        assert!(s.code.contains("tail();"));
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let s = strip("let q = '\"'; thread::spawn(); let e = '\\''; more();\n");
        assert!(s.code.contains("thread::spawn();"));
        assert!(s.code.contains("more();"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let s = strip("fn f<'a>(x: &'a str) -> &'static str { x } g();\n");
        assert!(s.code.contains("&'a str"));
        assert!(s.code.contains("&'static str"));
        assert!(s.code.contains("g();"));
    }

    #[test]
    fn newlines_preserved_for_line_mapping() {
        let src = "line1();\n\"two\nthree\"\nline4(); // c\n";
        let s = strip(src);
        assert_eq!(s.code.lines().count(), src.lines().count());
        let lines: Vec<&str> = s.code.lines().collect();
        assert!(lines[3].contains("line4();"));
        assert_eq!(s.comments[0].line, 4);
    }

    #[test]
    fn identifier_ending_in_r_before_string() {
        // `for` ends in `r`; the following string must still be blanked
        // as a plain string, and `r` must not be eaten as a raw prefix
        // when glued to an identifier.
        let s = strip("for x in y { p(\"Instant::now\") } var_r(\"z\");\n");
        assert!(!s.code.contains("Instant::now"));
        assert!(s.code.contains("var_r("));
    }
}
