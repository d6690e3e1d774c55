//! The parent revision's pull parser and tree builder, test-only: the
//! oracle `proptests.rs` holds the product parser to. It owns every
//! event string and keeps one `HashMap` per element, which is what the
//! product's borrowing parser replaced; accept/reject decisions, error
//! kinds and token-level positions must not have moved with it.

#![allow(dead_code)]

pub mod parser;
pub mod tree;

use wsd_xml::name::{is_name_char, is_name_start};
use wsd_xml::{XmlError, XmlErrorKind};

/// `XmlError::new` is crate-private to `wsd_xml`.
fn new_error(kind: XmlErrorKind, line: u32, column: u32) -> XmlError {
    XmlError { kind, line, column }
}

/// The parent's `name::is_valid_raw_name`, as written there.
fn is_valid_raw_name(raw: &str) -> bool {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() > 2 {
        return false;
    }
    parts.iter().all(|p| {
        let mut chars = p.chars();
        match chars.next() {
            Some(c) if is_name_start(c) => chars.all(is_name_char),
            _ => false,
        }
    })
}
