//! Blocking byte-stream abstraction and an in-memory duplex pipe.
//!
//! The threaded runtime runs the whole client → dispatcher → service stack
//! inside one process; [`duplex`] provides the connecting "sockets":
//! two [`PipeStream`] halves with blocking reads, bounded buffering
//! (back-pressure like a TCP window), EOF on close, and read timeouts.

use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A blocking, bidirectional byte stream (what a `TcpStream` is).
pub trait Stream: Read + Write + Send {
    /// Sets the read timeout; `None` blocks forever.
    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
}

impl Stream for std::net::TcpStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, timeout)
    }
}

/// A readiness callback: invoked whenever a stream *may* have become
/// readable (data arrived or the peer closed). Hooks must be cheap and
/// non-blocking — they run on the writer's thread.
pub type WakeHook = Arc<dyn Fn() + Send + Sync>;

/// A [`Stream`] that additionally supports non-blocking reads and
/// read-readiness wakeups — what a reactor front end multiplexes.
pub trait ReadyStream: Stream {
    /// Non-blocking read: `Ok(0)` is EOF, `ErrorKind::WouldBlock` means
    /// no data yet.
    fn try_read(&mut self, out: &mut [u8]) -> io::Result<usize>;

    /// Installs (or clears) the hook invoked on read-readiness changes.
    fn set_read_wakeup(&mut self, hook: Option<WakeHook>);
}

struct PipeBuf {
    /// Buffered bytes live at `data[start..]`: a flat `Vec` with a
    /// consumed prefix instead of a ring buffer, so both endpoints move
    /// bytes with bulk `copy_from_slice`/`extend_from_slice` (a deque's
    /// per-byte push/pop dominated drain profiles at envelope sizes).
    data: Vec<u8>,
    start: usize,
    closed: bool,
    capacity: usize,
}

impl PipeBuf {
    fn buffered(&self) -> usize {
        self.data.len() - self.start
    }

    /// Bulk-copies up to `out.len()` buffered bytes into `out`; resets
    /// the buffer once fully consumed so the allocation is reused.
    fn read_into(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.buffered());
        out[..n].copy_from_slice(&self.data[self.start..self.start + n]);
        self.start += n;
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        }
        n
    }

    /// Bulk-appends as much of `data` as the window allows, reclaiming
    /// the consumed prefix first when appending would grow the `Vec`
    /// beyond the window size (keeps memory bounded by ~capacity).
    fn write_from(&mut self, data: &[u8]) -> usize {
        let free = self.capacity.saturating_sub(self.buffered());
        let n = free.min(data.len());
        if self.start > 0 && self.data.len() + n > self.capacity {
            self.data.copy_within(self.start.., 0);
            let kept = self.data.len() - self.start;
            self.data.truncate(kept);
            self.start = 0;
        }
        self.data.extend_from_slice(&data[..n]);
        n
    }
}

struct PipeHalfShared {
    buf: Mutex<PipeBuf>,
    readable: Condvar,
    writable: Condvar,
    /// Read-readiness hook for this half's consumer; fired after data is
    /// pushed or the half is closed (mirrors the `readable` condvar).
    waker: Mutex<Option<WakeHook>>,
}

impl PipeHalfShared {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(PipeHalfShared {
            buf: Mutex::new(PipeBuf {
                data: Vec::new(),
                start: 0,
                closed: false,
                capacity,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            waker: Mutex::new(None),
        })
    }

    fn wake(&self) {
        let hook = self.waker.lock().clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    fn close(&self) {
        self.buf.lock().closed = true;
        self.readable.notify_all();
        self.writable.notify_all();
        self.wake();
    }
}

/// One endpoint of an in-memory duplex connection.
///
/// Dropping a `PipeStream` closes both directions, which the peer observes
/// as EOF (read) and `BrokenPipe` (write) — the same signals a closed TCP
/// socket gives.
pub struct PipeStream {
    incoming: Arc<PipeHalfShared>,
    outgoing: Arc<PipeHalfShared>,
    read_timeout: Option<Duration>,
}

/// Creates a connected pair of in-memory streams with `capacity` bytes of
/// buffering per direction.
pub fn duplex(capacity: usize) -> (PipeStream, PipeStream) {
    let a_to_b = PipeHalfShared::new(capacity.max(1));
    let b_to_a = PipeHalfShared::new(capacity.max(1));
    (
        PipeStream {
            incoming: Arc::clone(&b_to_a),
            outgoing: Arc::clone(&a_to_b),
            read_timeout: None,
        },
        PipeStream {
            incoming: a_to_b,
            outgoing: b_to_a,
            read_timeout: None,
        },
    )
}

impl PipeStream {
    /// Closes both directions immediately (like `shutdown(SHUT_RDWR)`).
    pub fn shutdown(&self) {
        self.incoming.close();
        self.outgoing.close();
    }

    /// A handle that can close this connection from another thread —
    /// what a server uses to interrupt workers blocked in `read` during
    /// shutdown.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            incoming: Arc::clone(&self.incoming),
            outgoing: Arc::clone(&self.outgoing),
        }
    }
}

impl ReadyStream for PipeStream {
    fn try_read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut buf = self.incoming.buf.lock();
        if buf.buffered() > 0 {
            let n = buf.read_into(out);
            drop(buf);
            self.incoming.writable.notify_all();
            return Ok(n);
        }
        if buf.closed {
            return Ok(0); // EOF
        }
        Err(io::Error::new(io::ErrorKind::WouldBlock, "no data buffered"))
    }

    fn set_read_wakeup(&mut self, hook: Option<WakeHook>) {
        *self.incoming.waker.lock() = hook;
    }
}

/// Remote-close handle for a [`PipeStream`] (see
/// [`PipeStream::shutdown_handle`]).
#[derive(Clone)]
pub struct ShutdownHandle {
    incoming: Arc<PipeHalfShared>,
    outgoing: Arc<PipeHalfShared>,
}

impl ShutdownHandle {
    /// Closes both directions; blocked reads see EOF, writes fail.
    pub fn shutdown(&self) {
        self.incoming.close();
        self.outgoing.close();
    }

    /// Whether the connection is already closed (either endpoint was
    /// dropped or shut down — both close both directions), so this
    /// handle has nothing left to interrupt.
    pub fn is_closed(&self) -> bool {
        self.incoming.buf.lock().closed
    }
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShutdownHandle")
    }
}

impl Read for PipeStream {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        // wsd-lint: allow(raw-clock): blocking-read timeout needs a monotonic Instant deadline for the park below; no simulated time crosses this boundary
        let deadline = self.read_timeout.map(|t| Instant::now() + t);
        let mut buf = self.incoming.buf.lock();
        loop {
            if buf.buffered() > 0 {
                let n = buf.read_into(out);
                drop(buf);
                self.incoming.writable.notify_all();
                return Ok(n);
            }
            if buf.closed {
                return Ok(0); // EOF
            }
            match deadline {
                Some(d) => {
                    if self.incoming.readable.wait_until(&mut buf, d).timed_out() {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"));
                    }
                }
                None => self.incoming.readable.wait(&mut buf),
            }
        }
    }
}

impl Write for PipeStream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut buf = self.outgoing.buf.lock();
        loop {
            if buf.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "peer closed the connection",
                ));
            }
            if buf.capacity.saturating_sub(buf.buffered()) > 0 {
                let n = buf.write_from(data);
                drop(buf);
                self.outgoing.readable.notify_all();
                self.outgoing.wake();
                return Ok(n);
            }
            self.outgoing.writable.wait(&mut buf);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Stream for PipeStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }
}

impl Drop for PipeStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for PipeStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PipeStream")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = duplex(64);
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn drop_gives_peer_eof() {
        let (a, mut b) = duplex(8);
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn write_after_peer_close_is_broken_pipe() {
        let (a, mut b) = duplex(8);
        drop(a);
        let err = b.write(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn buffered_data_still_readable_after_close() {
        let (mut a, mut b) = duplex(8);
        a.write_all(b"tail").unwrap();
        drop(a);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"tail");
    }

    #[test]
    fn small_capacity_applies_backpressure() {
        let (mut a, mut b) = duplex(2);
        let writer = thread::spawn(move || {
            a.write_all(b"abcdef").unwrap();
            a
        });
        thread::sleep(Duration::from_millis(20));
        let mut got = [0u8; 6];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"abcdef");
        writer.join().unwrap();
    }

    #[test]
    fn read_timeout_fires() {
        let (_a, mut b) = duplex(8);
        b.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let err = b.read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn try_read_would_block_until_data() {
        let (mut a, mut b) = duplex(8);
        let mut buf = [0u8; 4];
        assert_eq!(
            b.try_read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        a.write_all(b"hi").unwrap();
        assert_eq!(b.try_read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"hi");
        drop(a);
        assert_eq!(b.try_read(&mut buf).unwrap(), 0); // EOF
    }

    #[test]
    fn wake_hook_fires_on_write_and_close() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (mut a, mut b) = duplex(64);
        let wakes = Arc::new(AtomicUsize::new(0));
        let wakes2 = Arc::clone(&wakes);
        b.set_read_wakeup(Some(Arc::new(move || {
            wakes2.fetch_add(1, Ordering::SeqCst);
        })));
        a.write_all(b"x").unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        a.write_all(b"y").unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
        drop(a); // close wakes the reader too
        assert!(wakes.load(Ordering::SeqCst) >= 3);
        // Clearing the hook stops notifications.
        b.set_read_wakeup(None);
    }

    #[test]
    fn blocked_read_wakes_on_write() {
        let (mut a, mut b) = duplex(8);
        let reader = thread::spawn(move || {
            let mut buf = [0u8; 2];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        thread::sleep(Duration::from_millis(10));
        a.write_all(b"ok").unwrap();
        assert_eq!(&reader.join().unwrap(), b"ok");
    }
}
