//! The seeded input generator. Everything the program under test
//! receives — payload text, `MessageID`s, request bytes — derives from
//! `--seed`, so the same seed gives byte-identical requests.

use wsd_http::Request;
use wsd_soap::{rpc, SoapVersion};
use wsd_wsa::{EndpointReference, WsaHeaders};

/// Logical address of the echo service behind the dispatcher.
pub const LOGICAL_ECHO: &str = "http://dispatcher/svc/Echo";
/// `wsa:Action` carried by every addressed request.
pub const ECHO_ACTION: &str = "urn:wsd:echo:echo";
/// Payload of one `backlog_durable` message.
pub const BACKLOG_PAYLOAD_BYTES: usize = 4096;

/// SplitMix64: small, seedable, and good enough for payload text.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` characters of `[a-z0-9]` (nothing XML needs to escape, so
    /// text length equals serialized length).
    pub fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8; 36] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let mut out = String::with_capacity(len);
        while out.len() < len {
            let mut bits = self.next_u64();
            for _ in 0..12.min(len - out.len()) {
                out.push(ALPHABET[(bits % 36) as usize] as char);
                bits /= 36;
            }
        }
        out
    }
}

/// Text length that pads an echo request to the paper's 263-byte
/// envelope (`rpc::paper_echo_request`).
pub fn paper_pad_len() -> usize {
    rpc::parse_echo(&rpc::paper_echo_request())
        .expect("paper echo request is an echo call")
        .len()
}

/// One generated one-way request and what its reply must carry.
#[derive(Debug, Clone)]
pub struct Addressed {
    /// The HTTP request to POST to the MSG-Dispatcher.
    pub request: Request,
    /// Its `wsa:MessageID`; the reply's `RelatesTo` must equal it.
    pub message_id: String,
    /// The echo text; the reply must return it unchanged.
    pub text: String,
}

/// Per-client request generator.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
    client: usize,
    rng: Rng,
    sent: u64,
}

impl Generator {
    /// The generator of client number `client` under `seed`.
    pub fn new(seed: u64, client: usize) -> Generator {
        let mut mix = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        Generator {
            seed,
            client,
            rng: Rng::new(mix.next_u64()),
            sent: 0,
        }
    }

    /// Number of the request generated last (1 for the first).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The paper's 263-byte echo as an RPC POST to `target` on `host`,
    /// with seeded text in place of the paper's padding; returns the
    /// request and the text the response must echo.
    pub fn rpc_request(&mut self, host: &str, target: &str, pad: usize) -> (Request, String) {
        self.sent += 1;
        let text = self.rng.text(pad);
        let env = rpc::echo_request(SoapVersion::V11, &text);
        let request = Request::soap_post(
            host,
            target,
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        (request, text)
    }

    /// An addressed one-way echo request for the MSG-Dispatcher at
    /// `host`, carrying `payload_len` bytes of seeded text and asking for
    /// the reply at `reply_to`.
    pub fn oneway_request(&mut self, host: &str, reply_to: &str, payload_len: usize) -> Addressed {
        self.sent += 1;
        let message_id = format!("uuid:{:016x}-{}-{}", self.seed, self.client, self.sent);
        let text = self.rng.text(payload_len);
        let mut env = rpc::echo_request(SoapVersion::V11, &text);
        WsaHeaders::new()
            .to(LOGICAL_ECHO)
            .reply_to(EndpointReference::new(reply_to))
            .action(ECHO_ACTION)
            .message_id(message_id.clone())
            .apply(&mut env);
        let request = Request::soap_post(
            host,
            "/msg",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        Addressed {
            request,
            message_id,
            text,
        }
    }
}
