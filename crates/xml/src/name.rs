//! Qualified names (`prefix:local`) and name validity checks.

/// A qualified XML name as written in the document: optional prefix plus
/// local part.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    /// Namespace prefix, if the name was written `prefix:local`.
    pub prefix: Option<String>,
    /// Local part of the name.
    pub local: String,
}

impl QName {
    /// A name with no prefix.
    pub fn local(local: impl Into<String>) -> Self {
        QName {
            prefix: None,
            local: local.into(),
        }
    }

    /// A `prefix:local` name.
    pub fn prefixed(prefix: impl Into<String>, local: impl Into<String>) -> Self {
        QName {
            prefix: Some(prefix.into()),
            local: local.into(),
        }
    }

    /// Splits a raw `prefix:local` string. A name with no colon has no
    /// prefix. Returns `None` for empty parts or multiple colons.
    pub fn parse(raw: &str) -> Option<Self> {
        let mut it = raw.split(':');
        match (it.next(), it.next(), it.next()) {
            (Some(local), None, _) if !local.is_empty() => Some(QName::local(local)),
            (Some(p), Some(l), None) if !p.is_empty() && !l.is_empty() => {
                Some(QName::prefixed(p, l))
            }
            _ => None,
        }
    }

    /// The name as written: `prefix:local` or `local`.
    pub fn as_written(&self) -> String {
        match &self.prefix {
            Some(p) => format!("{p}:{}", self.local),
            None => self.local.clone(),
        }
    }
}

impl std::fmt::Display for QName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(p) = &self.prefix {
            write!(f, "{p}:")?;
        }
        f.write_str(&self.local)
    }
}

/// Whether `c` may start an XML name (namespace-aware subset: no colon).
pub fn is_name_start(c: char) -> bool {
    c == '_' || c.is_ascii_alphabetic() || (!c.is_ascii() && c.is_alphabetic())
}

/// Whether `c` may continue an XML name (no colon; colons are handled by
/// [`QName::parse`]).
pub fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || matches!(c, '-' | '.')
}

/// Validates a raw (possibly prefixed) name.
pub fn is_valid_raw_name(raw: &str) -> bool {
    // A second colon lands in `local`, where `is_name_char` refuses it.
    let valid = |part: &str| {
        let mut chars = part.chars();
        matches!(chars.next(), Some(c) if is_name_start(c)) && chars.all(is_name_char)
    };
    match raw.split_once(':') {
        Some((prefix, local)) => valid(prefix) && valid(local),
        None => valid(raw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_local_and_prefixed() {
        assert_eq!(QName::parse("foo"), Some(QName::local("foo")));
        assert_eq!(QName::parse("s:Body"), Some(QName::prefixed("s", "Body")));
    }

    #[test]
    fn parse_rejects_bad_shapes() {
        assert_eq!(QName::parse(""), None);
        assert_eq!(QName::parse(":x"), None);
        assert_eq!(QName::parse("x:"), None);
        assert_eq!(QName::parse("a:b:c"), None);
    }

    #[test]
    fn as_written_round_trips() {
        assert_eq!(QName::prefixed("s", "Body").as_written(), "s:Body");
        assert_eq!(QName::local("Body").as_written(), "Body");
    }

    #[test]
    fn display_matches_as_written() {
        assert_eq!(QName::prefixed("a", "b").to_string(), "a:b");
    }

    #[test]
    fn name_validity() {
        assert!(is_valid_raw_name("Envelope"));
        assert!(is_valid_raw_name("soap:Envelope"));
        assert!(is_valid_raw_name("_x-1.2"));
        assert!(is_valid_raw_name("élément"));
        assert!(!is_valid_raw_name("1abc"));
        assert!(!is_valid_raw_name("-abc"));
        assert!(!is_valid_raw_name("a b"));
        assert!(!is_valid_raw_name(""));
        assert!(!is_valid_raw_name("a:b:c"));
        assert!(!is_valid_raw_name(":b"));
    }
}
