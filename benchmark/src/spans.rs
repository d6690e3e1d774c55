//! Spans the harness records around its own calls in a traced run: one
//! parent per operation with children for the phases the client can see
//! from outside. Kept in memory, written out when the run ends.

use std::io::Write;
use std::path::Path;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole operation (the parent).
    Op,
    /// POST until the `202`/`200` is read.
    Send,
    /// Waiting until the mailbox service shows the replies stored.
    Settle,
    /// Polling / fetching until the verified reply is in hand.
    Poll,
}

impl SpanKind {
    /// Span name in the trace file (children are also per-layer metrics).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "client.op",
            SpanKind::Send => "client.send_us",
            SpanKind::Settle => "client.settle_us",
            SpanKind::Poll => "client.poll_us",
        }
    }
}

/// One recorded interval, in microseconds since the window began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What it covers.
    pub kind: SpanKind,
    /// Client that recorded it.
    pub client: u32,
    /// Operation number within that client; spans of one operation share it.
    pub op: u64,
    /// Start offset.
    pub start_us: u64,
    /// End offset.
    pub end_us: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A parent's self time: its duration minus the part of its interval
/// its children cover (overlapping children are counted once). `None`
/// when a child reaches outside the parent — the trace is then wrong.
pub fn self_time_us(parent: &Span, children: &[Span]) -> Option<u64> {
    let mut intervals: Vec<(u64, u64)> = children.iter().map(|c| (c.start_us, c.end_us)).collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = parent.start_us;
    for (start, end) in intervals {
        if start < parent.start_us || end > parent.end_us || end < start {
            return None;
        }
        let from = start.max(cursor);
        if end > from {
            covered += end - from;
            cursor = end;
        }
    }
    Some(parent.duration_us() - covered)
}

/// Self time of every operation in `spans` (parents paired with their
/// children by client and operation number). `None` if any operation's
/// children do not fit inside it.
pub fn op_self_times_us(spans: &[Span]) -> Option<Vec<f64>> {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.client, s.op, s.kind != SpanKind::Op));
    let mut out = Vec::new();
    let mut i = 0;
    while i < ordered.len() {
        let parent = ordered[i];
        if parent.kind != SpanKind::Op {
            return None; // a child without a parent
        }
        let mut children = Vec::new();
        i += 1;
        while i < ordered.len()
            && ordered[i].kind != SpanKind::Op
            && (ordered[i].client, ordered[i].op) == (parent.client, parent.op)
        {
            children.push(*ordered[i]);
            i += 1;
        }
        out.push(self_time_us(parent, &children)? as f64);
    }
    Some(out)
}

/// Writes spans as a JSON array. `id_of` names an operation (its
/// `MessageID` where it has one); children point at `client.op` of the
/// same id.
pub fn write_json(
    path: &Path,
    spans: &[Span],
    id_of: impl Fn(&Span) -> String,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.kind {
            SpanKind::Op => "null",
            _ => "\"client.op\"",
        };
        write!(
            out,
            "{{\"name\":\"{}\",\"id\":\"{}\",\"parent\":{},\"start_us\":{},\"end_us\":{}}}{}",
            s.kind.name(),
            id_of(s),
            parent,
            s.start_us,
            s.end_us,
            if i + 1 == spans.len() { "\n" } else { ",\n" },
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}
