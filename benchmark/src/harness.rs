//! The closed-loop measuring harness: client threads that each wait for
//! their reply before sending the next request, a warm-up, a timed
//! window cut into equal slices, and a sampler that reads process CPU at
//! the slice boundaries.

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use crate::procfs;
use crate::spans::{Span, SpanKind};
use crate::stats::{sorted, Slice};
use crate::topology::Topology;

/// Equal slices a timed window is cut into. Every metric is computed per
/// slice and the report takes one of the quietest (see
/// [`crate::stats::quietest`]).
pub const SLICES: usize = 20;
/// An operation with no verified reply after this long has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// Violation messages kept per client (the count is always exact).
const MAX_NOTES: usize = 8;

/// One closed-loop client.
pub trait Client: Send {
    /// Runs one operation to completion and records it.
    fn op(&mut self, rec: &mut Recorder);

    /// Called once after the last operation of a window: settles what
    /// the operations left open, so that it is checked too.
    fn finish(&mut self, _rec: &mut Recorder) {}
}

/// A topology with its connected clients, ready to measure.
pub struct Rig {
    /// The servers under test.
    pub topo: Topology,
    /// Closed-loop clients, one thread each.
    pub clients: Vec<Box<dyn Client>>,
    /// The same clients aimed past the dispatcher (`rpc_echo` only).
    pub direct: Vec<Box<dyn Client>>,
    /// Operations each client runs unrecorded before the window opens.
    /// A count, not a time, so set-up time moves with the cost of the
    /// first operations and is not padded by a constant.
    pub warmup_ops: u64,
    /// Run the single client on the calling thread, which then closes
    /// each slice at the end of the operation that crosses its boundary
    /// (so a burst cycle longer than a slice is a slice of its own).
    /// `sim_fig6` is single-threaded, and glibc serves the main thread
    /// from a faster arena than spawned ones.
    pub inline: bool,
}

impl Rig {
    /// Runs the clients closed-loop: [`warmup_ops`](Self::warmup_ops)
    /// unrecorded when `warm`, then `window` recorded.
    pub fn measure(&mut self, warm: bool, window: Duration, tracing: bool) -> Measured {
        let warmup_ops = if warm { self.warmup_ops } else { 0 };
        if self.inline {
            measure_inline(&mut *self.clients[0], warmup_ops, window, tracing)
        } else {
            measure(&mut self.clients, warmup_ops, window, tracing)
        }
    }
}

/// What one client measured (or, merged, what all of them did). Stamps
/// are nanoseconds since the window opened; samples are microseconds.
#[derive(Debug, Default)]
pub struct Recorder {
    client: u32,
    origin: Option<Instant>,
    /// Length of one time slice; 0 when the harness closes slices at
    /// operation boundaries instead.
    slice_ns: u64,
    tracing: bool,
    op: u64,
    /// The window's slices.
    pub slices: Vec<Slice>,
    /// Per-operation phase durations.
    pub send_us: Vec<f64>,
    /// See [`SpanKind::Settle`].
    pub settle_us: Vec<f64>,
    /// See [`SpanKind::Poll`].
    pub poll_us: Vec<f64>,
    /// Operations (messages) attempted in the window.
    pub attempted: u64,
    /// Of those, refused, timed out, wrong, duplicated or missing.
    pub failed: u64,
    /// Correctness violations (wrong, duplicated, missing, unreconciled).
    pub violations: u64,
    /// The first few violation / failure messages.
    pub notes: Vec<String>,
    /// Mailbox polls issued.
    pub polls: u64,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Recorder {
    fn new(client: u32, tracing: bool) -> Recorder {
        Recorder {
            client,
            tracing,
            ..Recorder::default()
        }
    }

    /// Opens the window at `origin`: cut into [`SLICES`] fixed time
    /// slices when `time_sliced`, else one open slice that
    /// [`close_slice`](Self::close_slice) ends.
    fn open(&mut self, origin: Instant, window: Duration, time_sliced: bool) {
        self.origin = Some(origin);
        if time_sliced {
            self.slice_ns = (window.as_nanos() as u64 / SLICES as u64).max(1);
            self.slices = vec![Slice::default(); SLICES];
        } else {
            self.slices = vec![Slice::default()];
        }
    }

    /// Nanoseconds since the window opened (0 during warm-up).
    pub fn now_ns(&self) -> u64 {
        self.origin.map_or(0, |o| o.elapsed().as_nanos() as u64)
    }

    /// Whether the window is open; clients skip bookkeeping that only
    /// feeds the report while it is not.
    pub fn recording(&self) -> bool {
        self.origin.is_some()
    }

    /// The slice records go to now. An operation that straddles the end
    /// of the window lands in the last slice.
    fn slice(&mut self) -> Option<&mut Slice> {
        self.origin?;
        match self.now_ns().checked_div(self.slice_ns) {
            Some(k) => self.slices.get_mut((k as usize).min(SLICES - 1)),
            None => self.slices.last_mut(),
        }
    }

    /// Counts `n` attempted messages.
    pub fn attempt(&mut self, n: u64) {
        if self.recording() {
            self.attempted += n;
        }
    }

    /// Counts `n` failed messages. `violation` marks a correctness
    /// violation (wrong, duplicated, missing, unreconciled) rather than a
    /// refusal; one that maps to no offered message passes `n` = 0.
    pub fn fail(&mut self, n: u64, violation: bool, note: impl FnOnce() -> String) {
        if !self.recording() {
            return;
        }
        self.failed += n;
        if violation {
            self.violations += n.max(1);
        }
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note());
        }
    }

    /// Records `msgs` messages completed now.
    pub fn complete(&mut self, msgs: u64) {
        if let Some(slice) = self.slice() {
            slice.msgs += msgs;
        }
    }

    /// Records one message's latency.
    pub fn latency(&mut self, ns: u64) {
        if let Some(slice) = self.slice() {
            slice.latency_us.push(ns as f64 / 1e3);
        }
    }

    /// Records `msgs` messages deposited in `ns` of deposit-phase time.
    pub fn deposited(&mut self, msgs: u64, ns: u64) {
        if let Some(slice) = self.slice() {
            slice.deposited = (
                slice.deposited.0 + msgs,
                slice.deposited.1 + ns as f64 / 1e9,
            );
        }
    }

    /// Records `msgs` messages picked up in `ns` of pick-up-phase time.
    pub fn picked(&mut self, msgs: u64, ns: u64) {
        if let Some(slice) = self.slice() {
            slice.picked = (slice.picked.0 + msgs, slice.picked.1 + ns as f64 / 1e9);
        }
    }

    /// Ends the open slice with its wall time and CPU; later records
    /// go to a new one.
    fn close_slice(&mut self, wall_s: f64, cpu_us: f64) {
        let slice = self.slices.last_mut().expect("opened with one slice");
        slice.wall_s = wall_s;
        slice.cpu_us = cpu_us;
        self.slices.push(Slice::default());
    }

    /// Records one phase of the current operation, as a sample and (when
    /// tracing) as a child span.
    pub fn phase(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64) {
        if !self.recording() {
            return;
        }
        let us = end_ns.saturating_sub(start_ns) as f64 / 1e3;
        match kind {
            SpanKind::Send => self.send_us.push(us),
            SpanKind::Settle => self.settle_us.push(us),
            SpanKind::Poll => self.poll_us.push(us),
            SpanKind::Op => {}
        }
        if self.tracing {
            self.spans.push(Span {
                kind,
                client: self.client,
                op: self.op,
                start_us: start_ns / 1000,
                end_us: end_ns / 1000,
            });
        }
    }

    /// Opens an operation: spans recorded until the next call carry
    /// `number` (the generator's message number, so a span's id is the
    /// operation's `MessageID`). Returns the start stamp.
    pub fn begin_op(&mut self, number: u64) -> u64 {
        self.op = number;
        self.now_ns()
    }

    /// Closes the current operation with its parent span.
    pub fn end_op(&mut self, start_ns: u64, end_ns: u64) {
        self.phase(SpanKind::Op, start_ns, end_ns);
    }

    fn absorb(&mut self, other: Recorder) {
        if self.slices.is_empty() {
            self.slices = other.slices;
        } else {
            for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
                mine.absorb(theirs);
            }
        }
        self.send_us.extend(other.send_us);
        self.settle_us.extend(other.settle_us);
        self.poll_us.extend(other.poll_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        self.notes.extend(other.notes);
        self.polls += other.polls;
        self.spans.extend(other.spans);
    }
}

/// Everything one window measured.
#[derive(Debug)]
pub struct Measured {
    /// All clients' records merged, slice by slice; slices that
    /// completed nothing are dropped.
    pub all: Recorder,
    /// Messages completed.
    pub completed: u64,
    /// Context switches during the window (threads alive at both ends).
    pub ctx_switches: u64,
    /// Most threads seen at a slice boundary.
    pub peak_threads: u64,
    /// When the last client finished warming up: the first timed
    /// operation starts here, and set-up time is counted up to here.
    pub opened: Instant,
}

impl Measured {
    fn new(mut all: Recorder, ctx_switches: u64, peak_threads: u64, opened: Instant) -> Measured {
        all.slices.retain(|s| s.msgs > 0);
        Measured {
            completed: all.slices.iter().map(|s| s.msgs).sum(),
            all,
            ctx_switches,
            peak_threads,
            opened,
        }
    }

    /// Every latency of the window, ascending.
    pub fn latencies_us(&self) -> Vec<f64> {
        sorted(
            self.all
                .slices
                .iter()
                .flat_map(|s| s.latency_us.iter().copied())
                .collect(),
        )
    }
}

/// [`measure`] for one client on the calling thread. A slice closes at
/// the end of the operation that crosses its boundary, so slices hold
/// whole operations and their wall time and CPU are exact; what is left
/// after the last boundary is dropped with the slice still open.
fn measure_inline(
    client: &mut dyn Client,
    warmup_ops: u64,
    window: Duration,
    tracing: bool,
) -> Measured {
    let mut rec = Recorder::new(0, tracing);
    (0..warmup_ops).for_each(|_| client.op(&mut rec));
    let opened = Instant::now();
    let ctx = procfs::ctx_switches();
    rec.open(opened, window, false);
    let slice = window / SLICES as u32;
    let mut began = (Duration::ZERO, procfs::cpu_us());
    let mut closes = slice;
    while opened.elapsed() < window {
        client.op(&mut rec);
        let now = (opened.elapsed(), procfs::cpu_us());
        if now.0 >= closes {
            rec.close_slice((now.0 - began.0).as_secs_f64(), (now.1 - began.1) as f64);
            began = now;
            closes = slice * (now.0.as_nanos() / slice.as_nanos().max(1) + 1) as u32;
        }
    }
    rec.slices.pop();
    client.finish(&mut rec);
    let ctx = procfs::ctx_switches().saturating_sub(ctx);
    Measured::new(rec, ctx, procfs::status().threads, opened)
}

/// Runs `clients` closed-loop on a thread each: `warmup_ops` operations
/// unrecorded, then — all together — `window` recorded in time slices.
/// The calling thread samples CPU at the slice boundaries.
pub fn measure(
    clients: &mut [Box<dyn Client>],
    warmup_ops: u64,
    window: Duration,
    tracing: bool,
) -> Measured {
    // Everyone meets at the gate once warm; the sampler then stamps the
    // opening instant and the second wait releases the clients with it.
    let gate = Barrier::new(clients.len() + 1);
    let opening = OnceLock::new();
    let mut boundaries = Vec::with_capacity(SLICES + 1);
    let mut peak_threads = 0;
    let mut ctx = (0, 0);
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (gate, opening) = (&gate, &opening);
                scope.spawn(move || {
                    let mut rec = Recorder::new(i as u32, tracing);
                    (0..warmup_ops).for_each(|_| client.op(&mut rec));
                    gate.wait();
                    gate.wait();
                    let opens: Instant = *opening.get().expect("stamped between the waits");
                    rec.open(opens, window, true);
                    while opens.elapsed() < window {
                        client.op(&mut rec);
                    }
                    client.finish(&mut rec);
                    rec
                })
            })
            .collect();
        gate.wait();
        let opens = *opening.get_or_init(Instant::now);
        gate.wait();
        for k in 0..=SLICES {
            let at = opens + window.mul_f64(k as f64 / SLICES as f64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            boundaries.push((opens.elapsed().as_secs_f64(), procfs::cpu_us()));
            peak_threads = peak_threads.max(procfs::status().threads);
            if k == 0 {
                ctx.0 = procfs::ctx_switches();
            } else if k == SLICES {
                ctx.1 = procfs::ctx_switches();
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut all = Recorder::default();
    recorders.into_iter().for_each(|rec| all.absorb(rec));
    // The sampler wakes a little after each boundary the clients slice
    // by; the offset is the same at both ends of a slice but for jitter.
    for (slice, b) in all.slices.iter_mut().zip(boundaries.windows(2)) {
        slice.wall_s = b[1].0 - b[0].0;
        slice.cpu_us = b[1].1.saturating_sub(b[0].1) as f64;
    }
    let opened = *opening.get().expect("stamped above");
    Measured::new(all, ctx.1.saturating_sub(ctx.0), peak_threads, opened)
}
