//! Arena-hygiene regression: a returned-and-rechecked-out
//! [`wsd_soap::EnvelopeScratch`] must never leak bytes (or interned
//! QName slices spliced into it) from a previous envelope. Debug builds
//! poison-fill the spare capacity on return and assert the poison is
//! intact at checkout, so a use-after-return shows up here — loudly —
//! instead of shipping cross-envelope data.

use wsd_soap::{checkout, Fault, FaultCode, SoapVersion};

const SECRET: &str = "<Envelope>SECRET-PREVIOUS-ENVELOPE-BYTES</Envelope>";

#[test]
fn rechecked_out_scratch_never_leaks_previous_envelope() {
    // Round 1: fill a pooled buffer with a distinctive envelope, large
    // enough that its bytes occupy capacity a later, shorter write will
    // not overwrite.
    let mut g = checkout();
    for _ in 0..16 {
        g.out.push_str(SECRET);
    }
    drop(g);

    // Round 2: the buffer (or a fresh one — either must be clean) comes
    // back empty, and in debug builds its entire spare capacity is
    // poison, not envelope bytes.
    let mut g = checkout();
    assert!(g.out.is_empty(), "checkout must hand out an empty buffer");
    #[cfg(debug_assertions)]
    {
        // SAFETY: reset() initialized every capacity byte with POISON
        // before the buffer entered the pool; len stays 0 here.
        let spare = unsafe {
            std::slice::from_raw_parts(g.out.as_ptr(), g.out.capacity())
        };
        assert!(
            spare.iter().all(|&b| b == wsd_soap::scratch::POISON),
            "spare capacity still holds previous-envelope bytes"
        );
    }

    // Round 3: a shorter write into the recycled buffer must yield
    // exactly its own bytes — nothing of the previous envelope.
    g.out.push_str("<a/>");
    let owned = g.take_out();
    assert_eq!(owned, "<a/>");
    assert!(!owned.contains("SECRET"));
}

#[test]
fn a_write_after_take_out_never_reaches_the_next_checkout() {
    // The guard outlives the buffer `take_out` moved out: a later write
    // lands in the empty buffer left behind, and the guard's drop must
    // scrub that one like any other before the pool hands it out again.
    let mut g = checkout();
    g.out.push_str("<a/>");
    assert_eq!(g.take_out(), "<a/>");
    g.out.push_str(SECRET);
    drop(g);

    let g = checkout();
    assert!(g.out.is_empty(), "a write after take_out reached the next checkout");
    #[cfg(debug_assertions)]
    {
        // SAFETY: as above — reset() poisoned every capacity byte.
        let spare = unsafe { std::slice::from_raw_parts(g.out.as_ptr(), g.out.capacity()) };
        assert!(
            spare.iter().all(|&b| b == wsd_soap::scratch::POISON),
            "spare capacity still holds bytes written after take_out"
        );
    }
}

#[test]
fn raw_fault_bytes_do_not_leak_across_checkouts() {
    // Write a fault with a distinctive reason through the raw byte path.
    let mut g = checkout();
    Fault::push_fault_envelope(
        SoapVersion::V11,
        &FaultCode::Receiver,
        "first-checkout-reason",
        &mut g.out,
    );
    assert!(g.out.contains("first-checkout-reason"));
    drop(g);

    // The next fault, shorter, must not contain a byte of the first.
    let mut g = checkout();
    Fault::push_fault_envelope(SoapVersion::V12, &FaultCode::Sender, "x", &mut g.out);
    assert!(!g.out.contains("first-checkout-reason"));
    let xml = g.take_out();
    // And it is still a well-formed fault envelope on its own.
    let env = wsd_soap::Envelope::parse(&xml).expect("fault envelope parses");
    assert!(env.to_xml().contains("x"));
}

#[test]
fn interleaved_checkouts_are_independent() {
    let mut a = checkout();
    let mut b = checkout();
    a.out.push_str("<alpha/>");
    b.out.push_str("<beta/>");
    assert_eq!(&*a.out, "<alpha/>");
    assert_eq!(&*b.out, "<beta/>");
    drop(a);
    drop(b);
    // Whatever order the pool recycles them in, both come back clean.
    let c = checkout();
    let d = checkout();
    assert!(c.out.is_empty() && d.out.is_empty());
}
