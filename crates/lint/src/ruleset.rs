//! The declarative ruleset: obligation / taint / gauge rules as data.
//!
//! v3 re-expresses the hand-written interprocedural rules as rows in a
//! [`Ruleset`] — `{sources, sanitizers, sinks}` triples plus message
//! templates — compiled by [`crate::summaries`] into per-function facts
//! and evaluated by the generic engines in [`crate::interproc`] and
//! [`crate::dataflow`]. A new "X must happen before Y" invariant (e.g.
//! ROADMAP item 5's `auth-before-enqueue`) is a one-row addition here
//! plus a name in [`crate::rules::RULE_NAMES`], not a new analysis.
//!
//! The checked-in `lint-rules.toml` at the workspace root is the
//! canonical copy; [`load`] parses it with a hand-rolled TOML-subset
//! reader (sections, string keys, single-line string arrays — no
//! dependency, like the rest of the crate) and falls back to
//! [`builtin`] when the file is absent (fixture roots, `--self`).
//! `builtin()` and the checked-in file must stay identical; a unit test
//! enforces it.

use crate::callgraph::CallSite;
use crate::rules::RULE_NAMES;
use std::path::Path;

/// A call-site pattern: `name` or `Qualifier::name`. A bare name
/// matches any call of that name (method, free, or path-qualified); a
/// qualified pattern additionally requires the call's last path
/// segment (`RequestParser::new`, `xml::parse`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallPat {
    /// Required qualifier (last path segment), if any.
    pub qualifier: Option<String>,
    /// The called name.
    pub name: String,
}

impl CallPat {
    /// Parses `"name"` or `"Qualifier::name"`.
    pub fn parse(s: &str) -> CallPat {
        match s.rsplit_once("::") {
            Some((q, n)) => CallPat {
                qualifier: Some(q.rsplit("::").next().unwrap_or(q).to_string()),
                name: n.to_string(),
            },
            None => CallPat {
                qualifier: None,
                name: s.to_string(),
            },
        }
    }

    /// Whether this pattern matches a call site.
    pub fn matches(&self, c: &CallSite) -> bool {
        self.name == c.name
            && match &self.qualifier {
                None => true,
                Some(q) => c.qualifier.as_deref() == Some(q.as_str()),
            }
    }

    /// Whether any pattern in `pats` matches `c`.
    pub fn any(pats: &[CallPat], c: &CallSite) -> bool {
        pats.iter().any(|p| p.matches(c))
    }
}

/// A typestate call pattern, richer than [`CallPat`] because protocol
/// transitions are usually keyed by *which object* a method is called
/// on: `*` (any call — in binding mode, any call on the tracked
/// object), `recv.name` (method `name` on a receiver whose last dotted
/// segment is `recv`, e.g. `wal.append` matches `self.wal.append(..)`),
/// `Qualifier::name`, or a bare `name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsPat {
    /// Matches any call (binding mode pre-filters to the tracked
    /// object, so `*` there means "any use of the object").
    Any,
    /// Matches method `name` on a receiver ending in `.recv`.
    Recv {
        /// Required last segment of the receiver chain.
        recv: String,
        /// The method name.
        name: String,
    },
    /// Bare or `Qualifier::name` matching, as [`CallPat`].
    Call(CallPat),
}

impl TsPat {
    /// Parses `"*"`, `"recv.name"`, `"Qualifier::name"`, or `"name"`.
    pub fn parse(s: &str) -> TsPat {
        if s == "*" {
            return TsPat::Any;
        }
        if !s.contains("::") {
            if let Some((r, n)) = s.rsplit_once('.') {
                return TsPat::Recv {
                    recv: r.to_string(),
                    name: n.to_string(),
                };
            }
        }
        TsPat::Call(CallPat::parse(s))
    }

    /// Whether the pattern matches a call site (`Any` matches every
    /// call — the engine pre-filters by tracked object first).
    pub fn matches(&self, c: &CallSite) -> bool {
        match self {
            TsPat::Any => true,
            TsPat::Recv { recv, name } => {
                *name == c.name
                    && c.receiver.rsplit('.').next() == Some(recv.as_str())
            }
            TsPat::Call(p) => p.matches(c),
        }
    }

    /// The TOML spelling this pattern parses back from.
    pub fn render(&self) -> String {
        match self {
            TsPat::Any => "*".to_string(),
            TsPat::Recv { recv, name } => format!("{recv}.{name}"),
            TsPat::Call(p) => match &p.qualifier {
                Some(q) => format!("{q}::{}", p.name),
                None => p.name.clone(),
            },
        }
    }
}

/// One automaton transition: in state `from`, a call matching `pat`
/// moves the machine to `to`. Spelled `"from => to : pat"` in TOML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsArc {
    /// Source state.
    pub from: String,
    /// Destination state.
    pub to: String,
    /// Call pattern that fires the arc.
    pub pat: TsPat,
}

impl TsArc {
    fn parse(s: &str) -> Result<TsArc, String> {
        let err = || format!("transition `{s}` must be `from => to : call-pattern`");
        let (from, rest) = s.split_once(" => ").ok_or_else(err)?;
        let (to, pat) = rest.split_once(" : ").ok_or_else(err)?;
        Ok(TsArc {
            from: from.trim().to_string(),
            to: to.trim().to_string(),
            pat: TsPat::parse(pat.trim()),
        })
    }

    fn render(&self) -> String {
        format!("{} => {} : {}", self.from, self.to, self.pat.render())
    }
}

/// One error transition: in state `state`, a call matching `pat` is an
/// immediate violation. Spelled `"state : pat : message"` in TOML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsErr {
    /// State the error arms in.
    pub state: String,
    /// Call pattern that triggers it.
    pub pat: TsPat,
    /// Finding message; `{fn}`, `{call}` placeholders.
    pub message: String,
}

impl TsErr {
    fn parse(s: &str) -> Result<TsErr, String> {
        let mut parts = s.splitn(3, " : ");
        match (parts.next(), parts.next(), parts.next()) {
            (Some(state), Some(pat), Some(msg)) => Ok(TsErr {
                state: state.trim().to_string(),
                pat: TsPat::parse(pat.trim()),
                message: msg.trim().to_string(),
            }),
            _ => Err(format!("error row `{s}` must be `state : call-pattern : message`")),
        }
    }

    fn render(&self) -> String {
        format!("{} : {} : {}", self.state, self.pat.render(), self.message)
    }
}

/// A protocol-lifecycle automaton, checked path-sensitively by
/// [`crate::typestate`]: calls fire transitions, unmatched calls
/// self-loop, error rows fire immediately, and (when `exit_message` is
/// set) a `return` / fall-through exit in a non-accepting state is a
/// finding. Helpers that perform transitions propagate them to callers
/// through interprocedural effect summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypestateRule {
    /// Rule id (must be in [`RULE_NAMES`]).
    pub name: &'static str,
    /// One-line rule doc (surfaced by `--explain`).
    pub doc: String,
    /// Path prefixes the automaton runs under (empty = everywhere).
    pub scopes: Vec<String>,
    /// `"ambient"` — one machine per function; `"binding"` — one
    /// machine per object bound by a `creates` call.
    pub track: String,
    /// Declared states; the first is the start state.
    pub states: Vec<String>,
    /// States a function may exit in without a finding.
    pub accepting: Vec<String>,
    /// Binding mode: calls whose bound result starts a tracked object.
    pub creates: Vec<TsPat>,
    /// Transition arcs.
    pub transitions: Vec<TsArc>,
    /// Error transitions.
    pub errors: Vec<TsErr>,
    /// Non-empty enables non-accepting-exit checking (`Return` and
    /// fall-through only — `?`, `break`, panics are exempt);
    /// `{fn}`, `{state}` placeholders.
    pub exit_message: String,
}

/// The wait-for-graph analysis ([`crate::waitgraph`]): one row
/// configures both the deadlock-cycle rule (`name`) and the
/// shutdown-liveness rule (`liveness_name`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitgraphRule {
    /// Deadlock-cycle rule id.
    pub name: &'static str,
    /// Blocking-pop-with-no-close rule id.
    pub liveness_name: &'static str,
    /// One-line rule doc (surfaced by `--explain`).
    pub doc: String,
    /// Field/binding base types treated as blocking queues.
    pub queue_types: Vec<String>,
    /// Potentially-unbounded blocking consume methods.
    pub blocking_pops: Vec<String>,
    /// Blocking produce methods (block when a bounded queue is full).
    pub blocking_pushes: Vec<String>,
    /// Shutdown methods that release parked consumers.
    pub closers: Vec<String>,
    /// Path prefixes exempt (the queue implementation itself).
    pub exempt: Vec<String>,
}

/// "Every path into a sink must have passed a satisfier first" —
/// unsatisfied sinks propagate the obligation to callers; an entry
/// point reached with the obligation still open is a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationRule {
    /// Rule id (must be in [`RULE_NAMES`]).
    pub name: &'static str,
    /// One-line rule doc (surfaced by `--explain`).
    pub doc: String,
    /// Path prefix the rule is scoped to.
    pub scope: String,
    /// Sink calls that demand the obligation.
    pub sinks: Vec<CallPat>,
    /// Calls that satisfy it (directly or transitively).
    pub satisfiers: Vec<CallPat>,
    /// Noun used in witness chains (`"forward sink"`).
    pub sink_noun: String,
    /// Excerpt template; `{fn}` is the entry-point function.
    pub contract: String,
}

/// "A trigger call's argument text must not contain a forbidden
/// spelling" (serve sites taking `Limits::default()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgRule {
    /// Rule id.
    pub name: &'static str,
    /// One-line rule doc (surfaced by `--explain`).
    pub doc: String,
    /// Path prefixes the rule is scoped to (any match applies).
    pub scopes: Vec<String>,
    /// Calls whose argument lists are inspected.
    pub triggers: Vec<CallPat>,
    /// Forbidden substring of the (blanked) argument text.
    pub forbidden: String,
    /// Witness template; `{call}`, `{fn}`, `{file}`, `{line}`.
    pub witness: String,
}

/// "No function reachable from an entry point may contain a forbidden
/// spelling" (zero-alloc drain path). Suppressions on call-site lines
/// are edge-aware: they prune propagation through that edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachRule {
    /// Rule id.
    pub name: &'static str,
    /// One-line rule doc (surfaced by `--explain`).
    pub doc: String,
    /// Path prefix entry points must live under.
    pub scope: String,
    /// Exact entry-point function names.
    pub entries: Vec<String>,
    /// Entry-point name prefixes (`route_raw` matches `route_raw_ack`).
    pub entry_prefixes: Vec<String>,
    /// Forbidden spellings, matched lexically in reachable bodies.
    pub markers: Vec<String>,
    /// Witness template; `{marker}`, `{fn}`, `{chain}`.
    pub witness: String,
}

/// "Bytes from a source must pass a sanitizer before reaching a sink"
/// — a variable-level taint lattice evaluated by [`crate::dataflow`],
/// with interprocedural source/sanitizer/sink summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintRule {
    /// Rule id.
    pub name: &'static str,
    /// One-line rule doc (surfaced by `--explain`).
    pub doc: String,
    /// Path prefixes exempt from the rule (the crates that implement
    /// the primitives themselves).
    pub exempt: Vec<String>,
    /// Calls whose results (and `&mut` arguments) become tainted.
    pub sources: Vec<CallPat>,
    /// Calls that clear taint from their arguments.
    pub sanitizers: Vec<CallPat>,
    /// Calls that must never receive a tainted argument.
    pub sinks: Vec<CallPat>,
    /// Excerpt template; `{call}`, `{var}`, `{src}`, `{file}`, `{line}`.
    pub contract: String,
}

/// "Every gauge increment is matched by a decrement on all paths out
/// of the enclosing function" — checked per function, only for gauge
/// classes the function both increments and decrements (balance intent
/// is local; cross-function pairs like push/pop counters are exempt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRule {
    /// Rule id.
    pub name: &'static str,
    /// One-line rule doc (surfaced by `--explain`).
    pub doc: String,
    /// Field base types treated as gauges.
    pub types: Vec<String>,
    /// Path prefixes exempt (the telemetry crate implements gauges).
    pub exempt: Vec<String>,
}

/// The full declarative ruleset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ruleset {
    /// Obligation-propagation rules.
    pub obligations: Vec<ObligationRule>,
    /// Argument-inspection rules.
    pub arg_rules: Vec<ArgRule>,
    /// Reachability rules.
    pub reach_rules: Vec<ReachRule>,
    /// Taint-dataflow rules.
    pub taint_rules: Vec<TaintRule>,
    /// Gauge-balance rules.
    pub gauge_rules: Vec<GaugeRule>,
    /// Protocol-lifecycle automata.
    pub typestate_rules: Vec<TypestateRule>,
    /// Wait-for-graph rules (deadlock cycles + pop liveness).
    pub waitgraph_rules: Vec<WaitgraphRule>,
}

fn pats(names: &[&str]) -> Vec<CallPat> {
    names.iter().map(|n| CallPat::parse(n)).collect()
}

fn strs(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

fn tpats(names: &[&str]) -> Vec<TsPat> {
    names.iter().map(|n| TsPat::parse(n)).collect()
}

fn arcs(rows: &[&str]) -> Vec<TsArc> {
    rows.iter().map(|r| TsArc::parse(r).expect("builtin transition")).collect()
}

fn terrs(rows: &[&str]) -> Vec<TsErr> {
    rows.iter().map(|r| TsErr::parse(r).expect("builtin error row")).collect()
}

/// The built-in ruleset — must stay identical to the checked-in
/// `lint-rules.toml` (used directly for roots without the file:
/// fixture trees, `--self`).
pub fn builtin() -> Ruleset {
    Ruleset {
        obligations: vec![
            ObligationRule {
                name: "wsa-rewrite-before-forward",
                doc: "Every path from envelope receipt to a forward enqueue \
                      passes a ReplyTo rewrite first — the paper's \
                      MSG-Dispatcher contract."
                    .into(),
                scope: "crates/core/".into(),
                sinks: pats(&["enqueue", "ack_enqueue"]),
                satisfiers: pats(&["rewrite_for_forward", "splice_forward"]),
                sink_noun: "forward sink".into(),
                contract: "path to forward enqueue without a ReplyTo rewrite \
                           (no rewrite on any route into `{fn}`)"
                    .into(),
            },
            ObligationRule {
                name: "shard-route-before-enqueue",
                doc: "Fleet deposits pass the consistent-hash routing step \
                      before any enqueue, keeping ring ownership truthful."
                    .into(),
                scope: "crates/core/".into(),
                sinks: pats(&["enqueue_fleet"]),
                satisfiers: pats(&["shard_route"]),
                sink_noun: "fleet sink".into(),
                contract: "path to fleet enqueue without a shard-route step                          (no `shard_route` on any route into `{fn}`)".into(),
            },
        ],
        arg_rules: vec![ArgRule {
            name: "limits-at-serve-site",
            doc: "Serve sites thread Limits from config, never \
                  Limits::default(), so parser bounds stay operable."
                .into(),
            scopes: strs(&["crates/core/src/rt/", "crates/core/src/sim/"]),
            triggers: pats(&["serve_connection", "serve", "RequestParser::new"]),
            forbidden: "Limits::default".into(),
            witness: "serve site `{call}` in {fn} ({file}:{line}) constructs \
                      Limits::default() instead of threading config limits"
                .into(),
        }],
        reach_rules: vec![ReachRule {
            name: "alloc-in-drain",
            doc: "The WsThread drain / route_raw dispatch path allocates \
                  nothing in steady state."
                .into(),
            scope: "crates/core/".into(),
            entries: strs(&["drain"]),
            entry_prefixes: strs(&["route_raw"]),
            markers: strs(&["String::from(", ".to_string()", "Vec::new()", "format!("]),
            witness: "allocation `{marker}` in {fn} on drain path: {chain}".into(),
        }],
        taint_rules: vec![TaintRule {
            name: "unvalidated-envelope-to-sink",
            doc: "Socket bytes pass envelope validation before any forward \
                  splice, WAL append, or enqueue — the dispatcher is the \
                  trust boundary."
                .into(),
            exempt: strs(&["crates/http/", "crates/xml/", "crates/soap/"]),
            sources: pats(&["try_read", "feed"]),
            sanitizers: pats(&[
                "verify_element",
                "verify_element_with_prefixes",
                "Envelope::parse",
                "xml::parse",
                "Document::parse",
            ]),
            sinks: pats(&[
                "splice_forward",
                "splice_forward_into",
                "append",
                "append_durable",
                "enqueue",
                "ack_enqueue",
                "enqueue_fleet",
            ]),
            contract: "unvalidated bytes reach `{call}`: `{var}` tainted by \
                       `{src}` at {file}:{line} was never sanitized"
                .into(),
        }],
        gauge_rules: vec![GaugeRule {
            name: "gauge-balance",
            doc: "A gauge incremented in a function is decremented on every \
                  non-panic path out of it — the gauges-return-to-0 teardown \
                  invariant, statically."
                .into(),
            types: strs(&["Gauge"]),
            exempt: strs(&["crates/telemetry/"]),
        }],
        typestate_rules: vec![
            TypestateRule {
                name: "wal-ack-before-durable",
                doc: "A WAL append is committed (fsynced) before the \
                      function returns — an ack sent from the appended \
                      state races durability; the static twin of the \
                      250-seed crash sweep."
                    .into(),
                scopes: strs(&["crates/store/", "crates/core/"]),
                track: "ambient".into(),
                states: strs(&["idle", "appended", "durable"]),
                accepting: strs(&["idle", "durable"]),
                creates: vec![],
                transitions: arcs(&[
                    "idle => appended : wal.append",
                    "durable => appended : wal.append",
                    "appended => appended : wal.append",
                    "appended => durable : wal.commit",
                ]),
                errors: vec![],
                exit_message: "`{fn}` can return with a WAL record appended \
                               but not committed (state `{state}`) — an ack \
                               on this path races durability"
                    .into(),
            },
            TypestateRule {
                name: "scratch-use-after-take",
                doc: "A pooled scratch guard is never touched again after \
                      `take_out` moves its buffer out — later writes land \
                      in a buffer the pool hands to the next envelope."
                    .into(),
                scopes: strs(&["crates/core/", "crates/soap/"]),
                track: "binding".into(),
                states: strs(&["live", "taken"]),
                accepting: strs(&["live", "taken"]),
                creates: tpats(&["scratch::checkout", "checkout"]),
                transitions: arcs(&["live => taken : take_out"]),
                errors: terrs(&[
                    "taken : * : scratch guard `{var}` used after \
                     `take_out` moved its buffer out — the write lands in \
                     a buffer the pool will reuse for the next envelope",
                ]),
                exit_message: String::new(),
            },
            TypestateRule {
                name: "reactor-conn-accounting",
                doc: "A job that takes a connection out of its cell rests \
                      it there again or deregisters it on every non-panic \
                      exit, and a deregistration that removes the cell \
                      from the conns map decrements `open_conns`, keeping \
                      the map and gauge truthful."
                    .into(),
                scopes: strs(&["crates/concurrent/src/reactor.rs"]),
                track: "ambient".into(),
                states: strs(&["idle", "taken"]),
                accepting: strs(&["idle"]),
                creates: vec![],
                transitions: arcs(&[
                    "idle => taken : start_running",
                    "taken => idle : rest",
                    "idle => taken : conns.remove",
                    "taken => idle : open_conns.dec",
                ]),
                errors: vec![],
                exit_message: "`{fn}` can exit with a connection taken out \
                               of its cell or the conns map (state \
                               `{state}`) but neither rested again nor \
                               accounted by an `open_conns` decrement"
                    .into(),
            },
            TypestateRule {
                name: "fleet-handoff-completion",
                doc: "A claimed ownership handoff reaches completion \
                      (`complete` or the recovery timer that leads there) \
                      on every path — an abandoned claim strands the dead \
                      instance's mailboxes."
                    .into(),
                scopes: strs(&["crates/core/", "crates/fleet/"]),
                track: "ambient".into(),
                states: strs(&["idle", "claimed", "released"]),
                accepting: strs(&["idle", "released"]),
                creates: vec![],
                transitions: arcs(&[
                    "idle => claimed : handoffs.claim_for",
                    "claimed => released : handoffs.complete",
                    "claimed => released : set_timer",
                ]),
                errors: vec![],
                exit_message: "`{fn}` can exit with a handoff claimed \
                               (state `{state}`) but never completed or \
                               scheduled for recovery"
                    .into(),
            },
        ],
        waitgraph_rules: vec![WaitgraphRule {
            name: "blocking-cycle",
            liveness_name: "queue-pop-no-close",
            doc: "Blocking operations (lock acquires, blocking queue \
                  pops/pushes) form an acyclic wait-for graph, and every \
                  potentially-unbounded pop has a close() somewhere to \
                  release it at shutdown."
                .into(),
            queue_types: strs(&["FifoQueue"]),
            blocking_pops: strs(&["pop"]),
            blocking_pushes: strs(&["push"]),
            closers: strs(&["close"]),
            exempt: strs(&["crates/concurrent/src/queue.rs", "crates/telemetry/"]),
        }],
    }
}

/// Loads `<root>/lint-rules.toml`, falling back to [`builtin`] when the
/// file is absent. A present-but-malformed file is an error: a typo'd
/// ruleset silently reverting to defaults would un-enforce rules.
pub fn load(root: &Path) -> Result<Ruleset, String> {
    let path = root.join("lint-rules.toml");
    // wsd-lint: allow(raw-file-io): the ruleset is checked-in lint config, not durable state
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(builtin());
    };
    parse_toml(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Interns a rule name against [`RULE_NAMES`] (findings carry
/// `&'static str` rule ids; an unknown name in the TOML is an error —
/// every declarative rule must also be registered for suppressions and
/// SARIF rule metadata).
fn intern_rule(name: &str) -> Result<&'static str, String> {
    RULE_NAMES
        .iter()
        .find(|r| **r == name)
        .copied()
        .ok_or_else(|| format!("unknown rule name `{name}` (not in RULE_NAMES)"))
}

/// One parsed `key = value` where value is a string or string array.
enum Val {
    Str(String),
    List(Vec<String>),
}

fn parse_value(raw: &str) -> Result<Val, String> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.rfind('"') else {
            return Err("unterminated string".into());
        };
        return Ok(Val::Str(rest[..end].to_string()));
    }
    if let Some(rest) = raw.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err("unterminated array (arrays must be single-line)".into());
        };
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let inner = part
                .strip_prefix('"')
                .and_then(|p| p.strip_suffix('"'))
                .ok_or_else(|| format!("array item `{part}` is not a quoted string"))?;
            items.push(inner.to_string());
        }
        return Ok(Val::List(items));
    }
    Err(format!("unsupported value `{raw}` (expected \"str\" or [\"a\", ...])"))
}

/// Hand-rolled parser for the TOML subset the ruleset uses:
/// `[[section]]` table arrays, `key = "string"`, and single-line
/// `key = ["a", "b"]` arrays. Comments (`#`) and blank lines ignored.
pub fn parse_toml(text: &str) -> Result<Ruleset, String> {
    let mut rs = Ruleset::default();
    // Current section kind and the index of the row being filled.
    let mut section: Option<(String, usize)> = None;
    // `[[typestate]]` header line per row, for the end-of-parse state
    // validation (errors there should point at the offending row).
    let mut ts_lines: Vec<usize> = Vec::new();

    for (lno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", lno + 1);
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let idx = match name {
                "obligation" => {
                    rs.obligations.push(ObligationRule {
                        name: "",
                        doc: String::new(),
                        scope: String::new(),
                        sinks: vec![],
                        satisfiers: vec![],
                        sink_noun: String::new(),
                        contract: String::new(),
                    });
                    rs.obligations.len() - 1
                }
                "arg-rule" => {
                    rs.arg_rules.push(ArgRule {
                        name: "",
                        doc: String::new(),
                        scopes: vec![],
                        triggers: vec![],
                        forbidden: String::new(),
                        witness: String::new(),
                    });
                    rs.arg_rules.len() - 1
                }
                "reach-rule" => {
                    rs.reach_rules.push(ReachRule {
                        name: "",
                        doc: String::new(),
                        scope: String::new(),
                        entries: vec![],
                        entry_prefixes: vec![],
                        markers: vec![],
                        witness: String::new(),
                    });
                    rs.reach_rules.len() - 1
                }
                "taint" => {
                    rs.taint_rules.push(TaintRule {
                        name: "",
                        doc: String::new(),
                        exempt: vec![],
                        sources: vec![],
                        sanitizers: vec![],
                        sinks: vec![],
                        contract: String::new(),
                    });
                    rs.taint_rules.len() - 1
                }
                "gauge" => {
                    rs.gauge_rules.push(GaugeRule {
                        name: "",
                        doc: String::new(),
                        types: vec![],
                        exempt: vec![],
                    });
                    rs.gauge_rules.len() - 1
                }
                "typestate" => {
                    ts_lines.push(lno + 1);
                    rs.typestate_rules.push(TypestateRule {
                        name: "",
                        doc: String::new(),
                        scopes: vec![],
                        track: String::new(),
                        states: vec![],
                        accepting: vec![],
                        creates: vec![],
                        transitions: vec![],
                        errors: vec![],
                        exit_message: String::new(),
                    });
                    rs.typestate_rules.len() - 1
                }
                "waitgraph" => {
                    rs.waitgraph_rules.push(WaitgraphRule {
                        name: "",
                        liveness_name: "",
                        doc: String::new(),
                        queue_types: vec![],
                        blocking_pops: vec![],
                        blocking_pushes: vec![],
                        closers: vec![],
                        exempt: vec![],
                    });
                    rs.waitgraph_rules.len() - 1
                }
                other => return Err(at(format!("unknown section `[[{other}]]`"))),
            };
            section = Some((name.to_string(), idx));
            continue;
        }
        let Some((key, raw_val)) = line.split_once('=') else {
            return Err(at(format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim();
        let val = parse_value(raw_val).map_err(&at)?;
        let Some((kind, idx)) = &section else {
            return Err(at(format!("`{key}` outside any [[section]]")));
        };
        let idx = *idx;
        let want_str = |v: &Val| -> Result<String, String> {
            match v {
                Val::Str(s) => Ok(s.clone()),
                _ => Err(at(format!("`{key}` expects a string"))),
            }
        };
        let want_list = |v: &Val| -> Result<Vec<String>, String> {
            match v {
                Val::List(l) => Ok(l.clone()),
                _ => Err(at(format!("`{key}` expects an array"))),
            }
        };
        let to_pats = |v: &Val| -> Result<Vec<CallPat>, String> {
            Ok(want_list(v)?.iter().map(|s| CallPat::parse(s)).collect())
        };
        match (kind.as_str(), key) {
            ("obligation", "name") => rs.obligations[idx].name = intern_rule(&want_str(&val)?)?,
            ("obligation", "doc") => rs.obligations[idx].doc = want_str(&val)?,
            ("obligation", "scope") => rs.obligations[idx].scope = want_str(&val)?,
            ("obligation", "sinks") => rs.obligations[idx].sinks = to_pats(&val)?,
            ("obligation", "satisfiers") => rs.obligations[idx].satisfiers = to_pats(&val)?,
            ("obligation", "sink-noun") => rs.obligations[idx].sink_noun = want_str(&val)?,
            ("obligation", "contract") => rs.obligations[idx].contract = want_str(&val)?,
            ("arg-rule", "name") => rs.arg_rules[idx].name = intern_rule(&want_str(&val)?)?,
            ("arg-rule", "doc") => rs.arg_rules[idx].doc = want_str(&val)?,
            ("arg-rule", "scopes") => rs.arg_rules[idx].scopes = want_list(&val)?,
            ("arg-rule", "triggers") => rs.arg_rules[idx].triggers = to_pats(&val)?,
            ("arg-rule", "forbidden") => rs.arg_rules[idx].forbidden = want_str(&val)?,
            ("arg-rule", "witness") => rs.arg_rules[idx].witness = want_str(&val)?,
            ("reach-rule", "name") => rs.reach_rules[idx].name = intern_rule(&want_str(&val)?)?,
            ("reach-rule", "doc") => rs.reach_rules[idx].doc = want_str(&val)?,
            ("reach-rule", "scope") => rs.reach_rules[idx].scope = want_str(&val)?,
            ("reach-rule", "entries") => rs.reach_rules[idx].entries = want_list(&val)?,
            ("reach-rule", "entry-prefixes") => {
                rs.reach_rules[idx].entry_prefixes = want_list(&val)?
            }
            ("reach-rule", "markers") => rs.reach_rules[idx].markers = want_list(&val)?,
            ("reach-rule", "witness") => rs.reach_rules[idx].witness = want_str(&val)?,
            ("taint", "name") => rs.taint_rules[idx].name = intern_rule(&want_str(&val)?)?,
            ("taint", "doc") => rs.taint_rules[idx].doc = want_str(&val)?,
            ("taint", "exempt") => rs.taint_rules[idx].exempt = want_list(&val)?,
            ("taint", "sources") => rs.taint_rules[idx].sources = to_pats(&val)?,
            ("taint", "sanitizers") => rs.taint_rules[idx].sanitizers = to_pats(&val)?,
            ("taint", "sinks") => rs.taint_rules[idx].sinks = to_pats(&val)?,
            ("taint", "contract") => rs.taint_rules[idx].contract = want_str(&val)?,
            ("gauge", "name") => rs.gauge_rules[idx].name = intern_rule(&want_str(&val)?)?,
            ("gauge", "doc") => rs.gauge_rules[idx].doc = want_str(&val)?,
            ("gauge", "types") => rs.gauge_rules[idx].types = want_list(&val)?,
            ("gauge", "exempt") => rs.gauge_rules[idx].exempt = want_list(&val)?,
            ("typestate", "name") => {
                rs.typestate_rules[idx].name = intern_rule(&want_str(&val)?)?
            }
            ("typestate", "doc") => rs.typestate_rules[idx].doc = want_str(&val)?,
            ("typestate", "scopes") => rs.typestate_rules[idx].scopes = want_list(&val)?,
            ("typestate", "track") => rs.typestate_rules[idx].track = want_str(&val)?,
            ("typestate", "states") => rs.typestate_rules[idx].states = want_list(&val)?,
            ("typestate", "accepting") => {
                rs.typestate_rules[idx].accepting = want_list(&val)?
            }
            ("typestate", "creates") => {
                rs.typestate_rules[idx].creates =
                    want_list(&val)?.iter().map(|s| TsPat::parse(s)).collect()
            }
            ("typestate", "transitions") => {
                rs.typestate_rules[idx].transitions = want_list(&val)?
                    .iter()
                    .map(|s| TsArc::parse(s))
                    .collect::<Result<_, _>>()
                    .map_err(&at)?
            }
            ("typestate", "errors") => {
                rs.typestate_rules[idx].errors = want_list(&val)?
                    .iter()
                    .map(|s| TsErr::parse(s))
                    .collect::<Result<_, _>>()
                    .map_err(&at)?
            }
            ("typestate", "exit-message") => {
                rs.typestate_rules[idx].exit_message = want_str(&val)?
            }
            ("waitgraph", "name") => {
                rs.waitgraph_rules[idx].name = intern_rule(&want_str(&val)?)?
            }
            ("waitgraph", "liveness-name") => {
                rs.waitgraph_rules[idx].liveness_name = intern_rule(&want_str(&val)?)?
            }
            ("waitgraph", "doc") => rs.waitgraph_rules[idx].doc = want_str(&val)?,
            ("waitgraph", "queue-types") => {
                rs.waitgraph_rules[idx].queue_types = want_list(&val)?
            }
            ("waitgraph", "blocking-pops") => {
                rs.waitgraph_rules[idx].blocking_pops = want_list(&val)?
            }
            ("waitgraph", "blocking-pushes") => {
                rs.waitgraph_rules[idx].blocking_pushes = want_list(&val)?
            }
            ("waitgraph", "closers") => rs.waitgraph_rules[idx].closers = want_list(&val)?,
            ("waitgraph", "exempt") => rs.waitgraph_rules[idx].exempt = want_list(&val)?,
            (k, key) => return Err(at(format!("unknown key `{key}` in [[{k}]]"))),
        }
    }
    for name in rs
        .obligations
        .iter()
        .map(|r| r.name)
        .chain(rs.arg_rules.iter().map(|r| r.name))
        .chain(rs.reach_rules.iter().map(|r| r.name))
        .chain(rs.taint_rules.iter().map(|r| r.name))
        .chain(rs.gauge_rules.iter().map(|r| r.name))
        .chain(rs.typestate_rules.iter().map(|r| r.name))
        .chain(rs.waitgraph_rules.iter().map(|r| r.name))
        .chain(rs.waitgraph_rules.iter().map(|r| r.liveness_name))
    {
        if name.is_empty() {
            return Err("a rule section is missing its `name`".into());
        }
    }
    // Structural validation of each automaton, after all keys are in
    // (row order in the file is free). Errors point at the offending
    // `[[typestate]]` header so a typo'd state is a one-look fix.
    for (ti, r) in rs.typestate_rules.iter().enumerate() {
        let line = ts_lines.get(ti).copied().unwrap_or(0);
        let at = |e: String| format!("line {line}: [[typestate]] `{}`: {e}", r.name);
        if r.states.is_empty() {
            return Err(at("declares no states".into()));
        }
        if r.track != "ambient" && r.track != "binding" {
            return Err(at(format!(
                "track `{}` must be `ambient` or `binding`",
                r.track
            )));
        }
        if r.track == "binding" && r.creates.is_empty() {
            return Err(at("binding-tracked automata need `creates` patterns".into()));
        }
        let undeclared = |s: &str| !r.states.iter().any(|st| st == s);
        for t in &r.transitions {
            for s in [&t.from, &t.to] {
                if undeclared(s) {
                    return Err(at(format!(
                        "transition `{}` references undeclared state `{s}` \
                         (declared: {})",
                        t.render(),
                        r.states.join(", ")
                    )));
                }
            }
        }
        for e in &r.errors {
            if undeclared(&e.state) {
                return Err(at(format!(
                    "error row references undeclared state `{}` (declared: {})",
                    e.state,
                    r.states.join(", ")
                )));
            }
        }
        for a in &r.accepting {
            if undeclared(a) {
                return Err(at(format!(
                    "accepting state `{a}` is undeclared (declared: {})",
                    r.states.join(", ")
                )));
            }
        }
    }
    Ok(rs)
}

/// `--explain` support: a rule's engine kind, doc string, and the TOML
/// row it parses back from, looked up across every section (the
/// waitgraph row answers for both of its rule names).
pub fn explain_rule(rs: &Ruleset, name: &str) -> Option<(&'static str, String, String)> {
    let mut only = Ruleset::default();
    let (kind, doc) = if let Some(r) = rs.obligations.iter().find(|r| r.name == name) {
        only.obligations.push(r.clone());
        ("obligation (interprocedural)", r.doc.clone())
    } else if let Some(r) = rs.arg_rules.iter().find(|r| r.name == name) {
        only.arg_rules.push(r.clone());
        ("argument inspection (call-site)", r.doc.clone())
    } else if let Some(r) = rs.reach_rules.iter().find(|r| r.name == name) {
        only.reach_rules.push(r.clone());
        ("reachability (call-graph)", r.doc.clone())
    } else if let Some(r) = rs.taint_rules.iter().find(|r| r.name == name) {
        only.taint_rules.push(r.clone());
        ("taint (path-sensitive dataflow)", r.doc.clone())
    } else if let Some(r) = rs.gauge_rules.iter().find(|r| r.name == name) {
        only.gauge_rules.push(r.clone());
        ("gauge balance (path-sensitive dataflow)", r.doc.clone())
    } else if let Some(r) = rs.typestate_rules.iter().find(|r| r.name == name) {
        only.typestate_rules.push(r.clone());
        ("typestate automaton (path-sensitive dataflow)", r.doc.clone())
    } else if let Some(r) = rs
        .waitgraph_rules
        .iter()
        .find(|r| r.name == name || r.liveness_name == name)
    {
        only.waitgraph_rules.push(r.clone());
        ("wait-for graph (blocking cycles + shutdown liveness)", r.doc.clone())
    } else {
        return None;
    };
    let toml = render_toml(&only)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .skip_while(|l| l.trim().is_empty())
        .collect::<Vec<_>>()
        .join("\n");
    Some((kind, doc, toml))
}

/// Renders the ruleset back to the TOML subset (used to generate the
/// checked-in file and by the round-trip test).
pub fn render_toml(rs: &Ruleset) -> String {
    fn s(out: &mut String, key: &str, v: &str) {
        out.push_str(&format!("{key} = \"{v}\"\n"));
    }
    fn l(out: &mut String, key: &str, v: &[String]) {
        let items: Vec<String> = v.iter().map(|i| format!("\"{i}\"")).collect();
        out.push_str(&format!("{key} = [{}]\n", items.join(", ")));
    }
    fn lp(out: &mut String, key: &str, v: &[CallPat]) {
        let items: Vec<String> = v
            .iter()
            .map(|p| match &p.qualifier {
                Some(q) => format!("\"{q}::{}\"", p.name),
                None => format!("\"{}\"", p.name),
            })
            .collect();
        out.push_str(&format!("{key} = [{}]\n", items.join(", ")));
    }
    let mut out = String::from(
        "# wsd-lint declarative ruleset (DESIGN.md §9.2–9.3). Each section is\n\
         # one interprocedural/dataflow/typestate rule; names must exist in\n\
         # RULE_NAMES. This file must stay identical to `ruleset::builtin()`\n\
         # (unit-tested; regenerate with the `regenerate_lint_rules_toml` test).\n",
    );
    for r in &rs.obligations {
        out.push_str("\n[[obligation]]\n");
        s(&mut out, "name", r.name);
        s(&mut out, "doc", &r.doc);
        s(&mut out, "scope", &r.scope);
        lp(&mut out, "sinks", &r.sinks);
        lp(&mut out, "satisfiers", &r.satisfiers);
        s(&mut out, "sink-noun", &r.sink_noun);
        s(&mut out, "contract", &r.contract);
    }
    for r in &rs.arg_rules {
        out.push_str("\n[[arg-rule]]\n");
        s(&mut out, "name", r.name);
        s(&mut out, "doc", &r.doc);
        l(&mut out, "scopes", &r.scopes);
        lp(&mut out, "triggers", &r.triggers);
        s(&mut out, "forbidden", &r.forbidden);
        s(&mut out, "witness", &r.witness);
    }
    for r in &rs.reach_rules {
        out.push_str("\n[[reach-rule]]\n");
        s(&mut out, "name", r.name);
        s(&mut out, "doc", &r.doc);
        s(&mut out, "scope", &r.scope);
        l(&mut out, "entries", &r.entries);
        l(&mut out, "entry-prefixes", &r.entry_prefixes);
        l(&mut out, "markers", &r.markers);
        s(&mut out, "witness", &r.witness);
    }
    for r in &rs.taint_rules {
        out.push_str("\n[[taint]]\n");
        s(&mut out, "name", r.name);
        s(&mut out, "doc", &r.doc);
        l(&mut out, "exempt", &r.exempt);
        lp(&mut out, "sources", &r.sources);
        lp(&mut out, "sanitizers", &r.sanitizers);
        lp(&mut out, "sinks", &r.sinks);
        s(&mut out, "contract", &r.contract);
    }
    for r in &rs.gauge_rules {
        out.push_str("\n[[gauge]]\n");
        s(&mut out, "name", r.name);
        s(&mut out, "doc", &r.doc);
        l(&mut out, "types", &r.types);
        l(&mut out, "exempt", &r.exempt);
    }
    for r in &rs.typestate_rules {
        out.push_str("\n[[typestate]]\n");
        s(&mut out, "name", r.name);
        s(&mut out, "doc", &r.doc);
        l(&mut out, "scopes", &r.scopes);
        s(&mut out, "track", &r.track);
        l(&mut out, "states", &r.states);
        l(&mut out, "accepting", &r.accepting);
        let creates: Vec<String> = r.creates.iter().map(|p| p.render()).collect();
        l(&mut out, "creates", &creates);
        let transitions: Vec<String> = r.transitions.iter().map(|t| t.render()).collect();
        l(&mut out, "transitions", &transitions);
        let errors: Vec<String> = r.errors.iter().map(|e| e.render()).collect();
        l(&mut out, "errors", &errors);
        s(&mut out, "exit-message", &r.exit_message);
    }
    for r in &rs.waitgraph_rules {
        out.push_str("\n[[waitgraph]]\n");
        s(&mut out, "name", r.name);
        s(&mut out, "liveness-name", r.liveness_name);
        s(&mut out, "doc", &r.doc);
        l(&mut out, "queue-types", &r.queue_types);
        l(&mut out, "blocking-pops", &r.blocking_pops);
        l(&mut out, "blocking-pushes", &r.blocking_pushes);
        l(&mut out, "closers", &r.closers);
        l(&mut out, "exempt", &r.exempt);
    }
    out
}

/// Fills a message template: `{fn}`, `{call}`, `{file}`, `{line}`, ...
pub fn fill(template: &str, pairs: &[(&str, &str)]) -> String {
    let mut out = template.to_string();
    for (k, v) in pairs {
        out = out.replace(&format!("{{{k}}}"), v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callpat_parses_and_matches() {
        let bare = CallPat::parse("enqueue");
        assert_eq!(bare.qualifier, None);
        let q = CallPat::parse("RequestParser::new");
        assert_eq!(q.qualifier.as_deref(), Some("RequestParser"));
        assert_eq!(q.name, "new");
        let deep = CallPat::parse("a::b::c");
        assert_eq!(deep.qualifier.as_deref(), Some("b"));
        assert_eq!(deep.name, "c");
    }

    #[test]
    fn toml_round_trips_the_builtin() {
        let rs = builtin();
        let text = render_toml(&rs);
        let parsed = parse_toml(&text).expect("round trip");
        assert_eq!(parsed, rs);
    }

    #[test]
    fn checked_in_ruleset_matches_builtin() {
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        let loaded = load(&root).expect("load workspace ruleset");
        assert_eq!(
            loaded,
            builtin(),
            "lint-rules.toml has drifted from ruleset::builtin() — regenerate \
             it with ruleset::render_toml(&builtin())"
        );
    }

    #[test]
    fn absent_file_falls_back_to_builtin() {
        let rs = load(Path::new("/nonexistent-fixture-root")).unwrap();
        assert_eq!(rs, builtin());
    }

    #[test]
    fn unknown_rule_name_is_rejected() {
        let err = parse_toml("[[gauge]]\nname = \"no-such-rule\"\n").unwrap_err();
        assert!(err.contains("no-such-rule"), "{err}");
    }

    #[test]
    fn malformed_value_is_rejected() {
        assert!(parse_toml("[[gauge]]\nname = 42\n").is_err());
        assert!(parse_toml("[[nope]]\n").is_err());
        assert!(parse_toml("name = \"x\"\n").is_err());
    }

    #[test]
    fn tspat_parses_every_spelling() {
        assert_eq!(TsPat::parse("*"), TsPat::Any);
        assert_eq!(
            TsPat::parse("wal.append"),
            TsPat::Recv { recv: "wal".into(), name: "append".into() }
        );
        assert_eq!(TsPat::parse("scratch::checkout"), TsPat::Call(CallPat::parse("scratch::checkout")));
        assert_eq!(TsPat::parse("set_timer"), TsPat::Call(CallPat::parse("set_timer")));
        for spelling in ["*", "wal.append", "scratch::checkout", "set_timer"] {
            assert_eq!(TsPat::parse(spelling).render(), spelling);
        }
    }

    #[test]
    fn undeclared_state_is_rejected_with_the_header_line() {
        let toml = "\n[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    track = \"ambient\"\nstates = [\"idle\", \"appended\"]\n\
                    accepting = [\"idle\"]\n\
                    transitions = [\"idle => durible : wal.append\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("undeclared state `durible`"), "{err}");

        let toml = "[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    track = \"ambient\"\nstates = [\"idle\"]\n\
                    accepting = [\"done\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("accepting state `done`"), "{err}");
    }

    #[test]
    fn bad_track_and_bindingless_creates_are_rejected() {
        let toml = "[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    track = \"global\"\nstates = [\"idle\"]\n";
        assert!(parse_toml(toml).unwrap_err().contains("`global`"));
        let toml = "[[typestate]]\nname = \"scratch-use-after-take\"\n\
                    track = \"binding\"\nstates = [\"live\"]\n";
        assert!(parse_toml(toml).unwrap_err().contains("creates"));
    }

    #[test]
    fn malformed_transition_row_is_rejected() {
        let toml = "[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    track = \"ambient\"\nstates = [\"idle\"]\n\
                    transitions = [\"idle -> idle : f\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("from => to"), "{err}");
    }

    /// Not a check: rewrites the checked-in `lint-rules.toml` from
    /// [`builtin`]. Run with `cargo test -p wsd-lint regenerate -- --ignored`
    /// after changing the builtin ruleset.
    #[test]
    #[ignore = "writes the checked-in lint-rules.toml"]
    fn regenerate_lint_rules_toml() {
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        std::fs::write(root.join("lint-rules.toml"), render_toml(&builtin())).unwrap();
    }

    #[test]
    fn fill_replaces_placeholders() {
        assert_eq!(
            fill("sink `{call}` in {fn}", &[("call", "enqueue"), ("fn", "D::f")]),
            "sink `enqueue` in D::f"
        );
    }
}
