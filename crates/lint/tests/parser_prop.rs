//! Property tests: the test lines the parser finds are exactly the
//! `#[cfg(test)]` item's, whatever items, strings and comments are
//! generated around and inside it.

use proptest::prelude::*;
use wsd_lint::parser::parse;

/// A generated item: a fn with some filler statements, possibly wrapped
/// in a mod or impl.
fn item() -> impl Strategy<Value = String> {
    let name = "[a-z][a-z0-9_]{0,8}";
    let filler = prop_oneof![
        Just("let a = 1;".to_string()),
        Just("// #[cfg(test)] mod fake_in_comment {".to_string()),
        Just("let s = \"#[test] fn fake_in_string() {\";".to_string()),
        Just("call(|| { nested(); });".to_string()),
        Just("if x { y(); } else { z(); }".to_string()),
        Just("let f: fn(u8) -> u8 = g;".to_string()),
    ];
    (name, proptest::collection::vec(filler, 0..4), any::<u8>()).prop_map(
        |(name, fillers, shape)| {
            let body = fillers.join("\n    ");
            let f = format!("fn {name}(v: [u8; 2]) {{\n    {body}\n}}");
            match shape % 3 {
                0 => f,
                1 => format!("mod m {{\n{f}\n}}"),
                _ => format!("struct S;\nimpl S {{\n{f}\n}}"),
            }
        },
    )
}

proptest! {
    /// A `#[cfg(test)] mod` between two plain items marks its own lines,
    /// attribute to closing brace, and nothing else.
    #[test]
    fn cfg_test_marking_is_span_exact(
        before in item(),
        inner in proptest::collection::vec(item(), 1..3),
        after in item(),
    ) {
        let test_mod = format!("#[cfg(test)]\nmod tests {{\n{}\n}}", inner.join("\n"));
        let src = format!("{before}\n{test_mod}\n{after}\n");
        let parsed = parse(&src);
        let first = before.lines().count() + 1;
        let last = first + test_mod.lines().count() - 1;
        for line in 1..=src.lines().count() {
            prop_assert_eq!(
                parsed.is_test_line(line),
                (first..=last).contains(&line),
                "line {}: {:?}",
                line,
                src.lines().nth(line - 1)
            );
        }
    }

    /// Items alone — fake test attributes in their strings and comments
    /// included — have no test line.
    #[test]
    fn strings_and_comments_never_fake_a_test_item(items in proptest::collection::vec(item(), 1..4)) {
        let src = items.join("\n\n");
        let parsed = parse(&src);
        prop_assert!((1..=src.lines().count()).all(|l| !parsed.is_test_line(l)));
    }
}
