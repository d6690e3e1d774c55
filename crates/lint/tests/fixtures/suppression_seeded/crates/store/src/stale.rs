//! Seeded unused-suppression: a well-formed, reasoned allow that no
//! longer silences anything.

fn tidy() -> u64 {
    // wsd-lint: allow(raw-clock): measured once at startup (stale — the clock call is long gone)
    compute()
}
