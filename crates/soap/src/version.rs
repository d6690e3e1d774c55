//! SOAP version constants: namespaces, content types and fault code names.

/// The two SOAP versions the dispatcher accepts, as in the paper's XSUL
/// stack ("SOAP 1.1 and 1.2 wrapping/unwrapping").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SoapVersion {
    /// SOAP 1.1 (the note, `http://schemas.xmlsoap.org/soap/envelope/`).
    V11,
    /// SOAP 1.2 (the W3C recommendation,
    /// `http://www.w3.org/2003/05/soap-envelope`).
    V12,
}

impl SoapVersion {
    /// Envelope namespace URI.
    pub fn envelope_ns(self) -> &'static str {
        match self {
            SoapVersion::V11 => "http://schemas.xmlsoap.org/soap/envelope/",
            SoapVersion::V12 => "http://www.w3.org/2003/05/soap-envelope",
        }
    }

    /// HTTP `Content-Type` for this version.
    pub fn content_type(self) -> &'static str {
        match self {
            SoapVersion::V11 => "text/xml; charset=utf-8",
            SoapVersion::V12 => "application/soap+xml; charset=utf-8",
        }
    }

    /// The conventional envelope prefix this crate writes.
    pub fn prefix(self) -> &'static str {
        match self {
            SoapVersion::V11 => "SOAP-ENV",
            SoapVersion::V12 => "env",
        }
    }

    /// Identifies the version from an envelope namespace URI.
    pub fn from_envelope_ns(ns: &str) -> Option<Self> {
        match ns {
            "http://schemas.xmlsoap.org/soap/envelope/" => Some(SoapVersion::V11),
            "http://www.w3.org/2003/05/soap-envelope" => Some(SoapVersion::V12),
            _ => None,
        }
    }

    /// The local name of the sender-side fault code
    /// (`Client` in 1.1, `Sender` in 1.2).
    pub fn sender_fault_code(self) -> &'static str {
        match self {
            SoapVersion::V11 => "Client",
            SoapVersion::V12 => "Sender",
        }
    }

    /// The local name of the receiver-side fault code
    /// (`Server` in 1.1, `Receiver` in 1.2).
    pub fn receiver_fault_code(self) -> &'static str {
        match self {
            SoapVersion::V11 => "Server",
            SoapVersion::V12 => "Receiver",
        }
    }
}

impl std::fmt::Display for SoapVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoapVersion::V11 => f.write_str("SOAP 1.1"),
            SoapVersion::V12 => f.write_str("SOAP 1.2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_are_distinct_and_recognized() {
        for v in [SoapVersion::V11, SoapVersion::V12] {
            assert_eq!(SoapVersion::from_envelope_ns(v.envelope_ns()), Some(v));
        }
        assert_eq!(SoapVersion::from_envelope_ns("urn:other"), None);
    }

    #[test]
    fn content_types_match_specs() {
        assert!(SoapVersion::V11.content_type().starts_with("text/xml"));
        assert!(SoapVersion::V12
            .content_type()
            .starts_with("application/soap+xml"));
    }

    #[test]
    fn fault_code_names_differ_between_versions() {
        assert_eq!(SoapVersion::V11.sender_fault_code(), "Client");
        assert_eq!(SoapVersion::V12.sender_fault_code(), "Sender");
        assert_eq!(SoapVersion::V11.receiver_fault_code(), "Server");
        assert_eq!(SoapVersion::V12.receiver_fault_code(), "Receiver");
    }
}
