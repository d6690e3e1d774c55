//! From-scratch XML 1.0 (+ Namespaces) support for the WS-Dispatcher.
//!
//! The paper's XSUL library does its SOAP envelope handling with a
//! hand-rolled pull parser (XPP); Rust's SOAP ecosystem is similarly
//! sparse, so this crate provides exactly what the protocol stack needs:
//!
//! * a streaming [`PullParser`] producing [`Event`]s,
//! * an owned element tree ([`Document`], [`Element`], [`Node`]) with
//!   namespaces resolved at parse time,
//! * a [`writer`] that serializes a tree back to text,
//! * correct escaping of text and attribute values,
//! * byte-level helpers for rewriters that splice serialized text instead
//!   of building a tree: [`verify_element`] (does the tree parser accept
//!   this element?), [`unescape`] and the word-at-a-time [`swar`] finders.
//!
//! Deliberate restrictions (documented, safe-by-default for a network
//! service): no DTDs / external entities (rejecting them closes the classic
//! XML-bomb and XXE holes), UTF-8 only.
//!
//! # Example
//!
//! ```
//! use wsd_xml::{parse, Element};
//!
//! let doc = parse("<m:echo xmlns:m='urn:test'><text>hi</text></m:echo>").unwrap();
//! assert_eq!(doc.root.name.local, "echo");
//! assert_eq!(doc.root.namespace.as_deref(), Some("urn:test"));
//! let text = doc.root.find_child(None, "text").unwrap();
//! assert_eq!(text.text(), "hi");
//! assert!(wsd_xml::write(&doc).contains("urn:test"));
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod escape;
pub mod name;
pub mod parser;
pub mod splice;
pub mod swar;
pub mod tree;
pub mod writer;

pub use error::{XmlError, XmlErrorKind};
pub use name::QName;
pub use parser::{Event, PullParser, StartTag};
pub use splice::{unescape, verify_element};
pub use tree::{Attribute, Document, Element, Node};
pub use writer::write_element_into;

/// Parses a complete UTF-8 document into a tree.
pub fn parse(input: &str) -> Result<Document, XmlError> {
    tree::Document::parse(input)
}

/// Serializes a document, including the XML declaration.
pub fn write(doc: &Document) -> String {
    writer::write_document(doc)
}

/// Serializes a single element (no XML declaration).
pub fn write_element(el: &Element) -> String {
    writer::write_element(el)
}
