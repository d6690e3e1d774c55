//! Message security inspection.
//!
//! The paper positions the WSD as "a complete firewall for Web Services"
//! with "message security inspection" and future-work single sign-on:
//! services behind the dispatcher "do not need to implement security —
//! instead rely on WSD to do checks". Policies inspect each envelope
//! before forwarding; the composite applies them in order.

use std::collections::HashSet;

use wsd_soap::Envelope;
use wsd_wsa::WsaHeaders;

use crate::error::WsdError;

/// The namespace of dispatcher-defined headers (auth tokens).
const WSD_NS: &str = "urn:wsd:dispatcher";

/// A message-inspection policy.
pub trait SecurityPolicy: Send + Sync {
    /// Accepts the message (Ok) or rejects it with a reason.
    fn inspect(&self, serialized_len: usize, env: &Envelope) -> Result<(), WsdError>;

    /// Short policy name for logs.
    fn name(&self) -> &'static str;
}

/// Rejects messages larger than a byte limit.
#[derive(Debug, Clone, Copy)]
// wsd-lint: allow(pub-without-caller): tests/end_to_end_rt.rs's security chain and the msg/rpc policy tests compose it
pub struct MaxSize(pub usize);

impl SecurityPolicy for MaxSize {
    fn inspect(&self, len: usize, _env: &Envelope) -> Result<(), WsdError> {
        if len > self.0 {
            Err(WsdError::Rejected(format!(
                "message of {len} bytes exceeds the {} byte limit",
                self.0
            )))
        } else {
            Ok(())
        }
    }
    fn name(&self) -> &'static str {
        "max-size"
    }
}

/// Requires `wsa:Action` to be in an allow-list.
#[derive(Debug, Clone)]
pub struct RequireAction {
    allowed: HashSet<String>,
}

impl RequireAction {
    /// Builds the allow-list.
    pub fn new(actions: impl IntoIterator<Item = impl Into<String>>) -> Self {
        RequireAction {
            allowed: actions.into_iter().map(Into::into).collect(),
        }
    }
}

impl SecurityPolicy for RequireAction {
    fn inspect(&self, _len: usize, env: &Envelope) -> Result<(), WsdError> {
        let headers =
            WsaHeaders::from_envelope(env).map_err(|e| WsdError::Rejected(e.to_string()))?;
        match headers.action {
            Some(a) if self.allowed.contains(&a) => Ok(()),
            Some(a) => Err(WsdError::Rejected(format!("action {a:?} not allowed"))),
            None => Err(WsdError::Rejected("missing wsa:Action".to_string())),
        }
    }
    fn name(&self) -> &'static str {
        "require-action"
    }
}

/// Single sign-on: the message must carry a `wsd:AuthToken` header whose
/// value is a known token. Services behind the dispatcher then trust the
/// dispatcher instead of authenticating themselves.
#[derive(Debug, Clone)]
pub struct TokenAuth {
    tokens: HashSet<String>,
}

impl TokenAuth {
    /// Builds the token set.
    pub fn new(tokens: impl IntoIterator<Item = impl Into<String>>) -> Self {
        TokenAuth {
            tokens: tokens.into_iter().map(Into::into).collect(),
        }
    }

    /// Reads the token header from an envelope.
    fn token_of(env: &Envelope) -> Option<String> {
        env.find_header(Some(WSD_NS), "AuthToken").map(|h| h.text())
    }
}

impl SecurityPolicy for TokenAuth {
    fn inspect(&self, _len: usize, env: &Envelope) -> Result<(), WsdError> {
        match Self::token_of(env) {
            Some(t) if self.tokens.contains(&t) => Ok(()),
            Some(_) => Err(WsdError::Rejected("invalid auth token".to_string())),
            None => Err(WsdError::Rejected("missing wsd:AuthToken header".to_string())),
        }
    }
    fn name(&self) -> &'static str {
        "token-auth"
    }
}

/// Applies a list of policies in order; the first rejection wins.
pub struct PolicyChain {
    policies: Vec<Box<dyn SecurityPolicy>>,
}

impl Default for PolicyChain {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyChain {
    /// An empty (accept-everything) chain.
    pub fn new() -> Self {
        PolicyChain {
            policies: Vec::new(),
        }
    }

    /// Appends a policy. Returns `self` for chaining.
    pub fn with(mut self, policy: impl SecurityPolicy + 'static) -> Self {
        self.policies.push(Box::new(policy));
        self
    }

    /// Runs every policy.
    pub fn inspect(&self, serialized_len: usize, env: &Envelope) -> Result<(), WsdError> {
        for p in &self.policies {
            p.inspect(serialized_len, env)?;
        }
        Ok(())
    }

    /// Number of policies installed.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

/// Attaches an auth-token header to an envelope (client side of single
/// sign-on).
pub fn attach_token(env: &mut Envelope, token: &str) {
    env.remove_headers(Some(WSD_NS), "AuthToken");
    env.headers.push(
        wsd_xml::Element::new_ns(Some("wsd"), "AuthToken", WSD_NS)
            .declare_namespace(Some("wsd"), WSD_NS)
            .with_text(token),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_soap::{rpc, SoapVersion};
    use wsd_wsa::WsaHeaders;

    fn env() -> Envelope {
        rpc::echo_request(SoapVersion::V11, "x")
    }

    #[test]
    fn max_size_enforced() {
        let p = MaxSize(100);
        assert!(p.inspect(100, &env()).is_ok());
        assert!(matches!(
            p.inspect(101, &env()),
            Err(WsdError::Rejected(_))
        ));
    }

    #[test]
    fn require_action_checks_header() {
        let p = RequireAction::new(["urn:wsd:echo:echo"]);
        let mut e = env();
        assert!(p.inspect(0, &e).is_err(), "missing action must fail");
        WsaHeaders::new().action("urn:wsd:echo:echo").apply(&mut e);
        assert!(p.inspect(0, &e).is_ok());
        WsaHeaders::new().action("urn:evil").apply(&mut e);
        assert!(p.inspect(0, &e).is_err());
    }

    #[test]
    fn token_auth_accepts_known_token_only() {
        let p = TokenAuth::new(["secret-1", "secret-2"]);
        let mut e = env();
        assert!(p.inspect(0, &e).is_err());
        attach_token(&mut e, "secret-2");
        assert!(p.inspect(0, &e).is_ok());
        attach_token(&mut e, "wrong");
        assert!(p.inspect(0, &e).is_err());
    }

    #[test]
    fn attach_token_replaces_previous() {
        let mut e = env();
        attach_token(&mut e, "a");
        attach_token(&mut e, "b");
        assert_eq!(TokenAuth::token_of(&e).as_deref(), Some("b"));
        // Survives serialization.
        let reparsed = Envelope::parse(&e.to_xml()).unwrap();
        assert_eq!(TokenAuth::token_of(&reparsed).as_deref(), Some("b"));
    }

    #[test]
    fn chain_applies_in_order() {
        let chain = PolicyChain::new()
            .with(MaxSize(1000))
            .with(TokenAuth::new(["t"]));
        let mut e = env();
        attach_token(&mut e, "t");
        assert!(chain.inspect(500, &e).is_ok());
        assert!(chain.inspect(5000, &e).is_err()); // size first
        let plain = env();
        assert!(chain.inspect(10, &plain).is_err()); // then token
        assert_eq!(chain.len(), 2);
        assert!(!chain.is_empty());
    }
}
