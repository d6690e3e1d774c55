//! Pooled per-envelope scratch buffers.
//!
//! The dispatch hot path produces one rewritten envelope per message.
//! Instead of allocating a fresh `String` each time, handler threads
//! check an [`EnvelopeScratch`] out of a global pool (the same idiom as
//! the reactor's reusable write buffer), splice into it, and return it
//! on drop. Steady state allocates nothing: the buffer's capacity
//! survives the round trip.
//!
//! Hygiene: a buffer returned to the pool must never leak bytes from
//! the previous envelope. [`EnvelopeScratch::reset`] clears the
//! contents and, in debug builds, poison-fills the spare capacity with
//! `0xA5`; checkout asserts the buffer is empty and (debug) that the
//! poison is intact, so any use-after-return or stale-slice bug fails
//! loudly in tests instead of shipping cross-envelope data.

// wsd-lint: allow(std-sync-primitive): wsd-soap stays dependency-light (wsd-xml only); the pool mutex is uncontended and held for a single Vec push/pop
use std::sync::Mutex;

/// Fill byte written over spare capacity in debug builds.
pub const POISON: u8 = 0xA5;

/// How many buffers the global pool retains (beyond this, returned
/// buffers are simply dropped — correct, just not reused).
const POOL_RETAIN: usize = 32;

/// Capacity every pooled buffer has: one envelope plus headroom.
const DEFAULT_CAPACITY: usize = 2048;

/// Reusable per-envelope working memory: the splice/fault output buffer.
#[derive(Debug, Default)]
pub struct EnvelopeScratch {
    /// The output buffer rewrites and raw fault/ack bytes are written to.
    pub out: String,
}

impl EnvelopeScratch {
    /// A fresh scratch with pre-sized capacity (one envelope plus
    /// headroom, so the first checkout already avoids growth reallocs).
    /// Debug builds poison the capacity up front, so checkout's hygiene
    /// assert holds for fresh and pooled buffers alike.
    pub fn with_default_capacity() -> Self {
        let mut scratch = EnvelopeScratch {
            out: String::with_capacity(DEFAULT_CAPACITY),
        };
        scratch.reset();
        scratch
    }

    /// Clears the scratch for reuse. Debug builds poison-fill the spare
    /// capacity so stale reads of previous-envelope bytes are visible.
    pub fn reset(&mut self) {
        self.out.clear();
        #[cfg(debug_assertions)]
        {
            // SAFETY: we write POISON over the spare capacity and then
            // restore len = 0; the buffer content is never read as &str
            // while non-UTF-8 bytes are within len.
            unsafe {
                let v = self.out.as_mut_vec();
                let cap = v.capacity();
                std::ptr::write_bytes(v.as_mut_ptr(), POISON, cap);
                v.set_len(0);
            }
        }
    }

    /// Debug-build verification that the poison laid down by
    /// [`reset`](Self::reset) is intact — i.e. nobody wrote into (or
    /// held onto) the buffer while it sat in the pool.
    #[cfg(debug_assertions)]
    fn assert_poisoned(&self) {
        assert!(self.out.is_empty(), "pooled scratch must be empty");
        // SAFETY: reading initialized-by-reset spare capacity via the
        // raw pointer; len stays 0 throughout.
        unsafe {
            let spare = std::slice::from_raw_parts(self.out.as_ptr(), self.out.capacity());
            assert!(
                spare.iter().all(|&b| b == POISON),
                "pooled scratch leaked bytes from a previous envelope"
            );
        }
    }
}

static POOL: Mutex<Vec<EnvelopeScratch>> = Mutex::new(Vec::new());

/// Checks a scratch buffer out of the global pool (allocating a fresh
/// one only when the pool is empty). The buffer is verified clean — and
/// in debug builds, poison-intact — at checkout.
pub fn checkout() -> ScratchGuard {
    let pooled = POOL.lock().expect("scratch pool poisoned").pop();
    let scratch = match pooled {
        Some(s) => s,
        None => EnvelopeScratch::with_default_capacity(),
    };
    assert!(scratch.out.is_empty(), "pooled scratch must be empty");
    #[cfg(debug_assertions)]
    scratch.assert_poisoned();
    ScratchGuard {
        scratch: Some(scratch),
    }
}

/// RAII checkout of an [`EnvelopeScratch`]; returns the (reset) buffer
/// to the pool on drop, unless it has shrunk below the pre-size (after a
/// [`take_out`](Self::take_out)): every pooled buffer is pre-sized.
#[derive(Debug)]
pub struct ScratchGuard {
    scratch: Option<EnvelopeScratch>,
}

impl ScratchGuard {
    /// Moves the output `String` out of the scratch (for handing an
    /// envelope to an owning consumer, e.g. a queued request body). What
    /// the guard holds afterwards is empty and not pre-sized, so its drop
    /// lets it go instead of pooling it, and a later checkout starts from
    /// a fresh pre-sized buffer; prefer borrowing `out` when the bytes are
    /// transient.
    pub fn take_out(&mut self) -> String {
        std::mem::take(&mut self.scratch.as_mut().expect("scratch present").out)
    }
}

impl std::ops::Deref for ScratchGuard {
    type Target = EnvelopeScratch;
    fn deref(&self) -> &EnvelopeScratch {
        self.scratch.as_ref().expect("scratch present")
    }
}

impl std::ops::DerefMut for ScratchGuard {
    fn deref_mut(&mut self) -> &mut EnvelopeScratch {
        self.scratch.as_mut().expect("scratch present")
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        if let Some(mut scratch) = self.scratch.take() {
            if scratch.out.capacity() < DEFAULT_CAPACITY {
                return;
            }
            scratch.reset();
            let mut pool = POOL.lock().expect("scratch pool poisoned");
            if pool.len() < POOL_RETAIN {
                pool.push(scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuse_roundtrip() {
        let mut g = checkout();
        g.out.push_str("<env>payload</env>");
        drop(g);
        let g2 = checkout(); // must not observe the previous contents
        assert!(g2.out.is_empty());
    }

    #[test]
    fn take_out_hands_over_ownership() {
        let mut g = checkout();
        g.out.push_str("abc");
        let owned = g.take_out();
        assert_eq!(owned, "abc");
        assert!(g.out.is_empty());
        drop(g); // lets the emptied buffer go: it is not pre-sized
        assert!(checkout().out.is_empty());
    }

    #[test]
    fn a_checkout_after_take_out_is_pre_sized_and_poisoned() {
        let mut g = checkout();
        g.out.push_str("<moved/>");
        drop(g.take_out());
        drop(g);
        let g = checkout();
        assert!(g.out.capacity() >= DEFAULT_CAPACITY, "{}", g.out.capacity());
        #[cfg(debug_assertions)]
        g.assert_poisoned();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn reset_poisons_spare_capacity() {
        let mut s = EnvelopeScratch::with_default_capacity();
        s.out.push_str("sensitive previous envelope");
        s.reset();
        assert!(s.out.is_empty());
        unsafe {
            let v = s.out.as_mut_vec();
            let spare = std::slice::from_raw_parts(v.as_ptr(), v.capacity());
            assert!(spare.iter().all(|&b| b == POISON));
        }
        s.assert_poisoned();
    }
}
