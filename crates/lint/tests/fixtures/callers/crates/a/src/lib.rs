//! `pub-without-caller` fixture: each item says whether the rule
//! reports it.

/// Reported: only its own test module calls it.
pub fn only_own_tests() {}

/// Kept: a type named only in its own file's signature below.
pub struct SeriesPoint;

/// Kept: crate `b` calls it.
pub fn series() -> Vec<SeriesPoint> {
    Vec::new()
}

/// Kept: crate `b` names it.
pub struct Seen;

impl Seen {
    /// Reported: elsewhere its name is only re-exported.
    pub fn only_reexported(&self) {}
}

impl Iterator for Seen {
    type Item = u8;
    /// Kept: a trait-impl method.
    fn next(&mut self) -> Option<u8> {
        None
    }
}

/// Kept: its one caller is under `benchmark/src`.
pub fn bench_only() {}

// wsd-lint: allow(pub-without-caller): an out-of-tree harness reads it
pub fn allowed() {}

// wsd-lint: allow(pub-without-caller): stale, crate b calls it
pub fn called() {}

/// Kept: crate `b` calls it under the name it re-exports it as.
pub fn renamed() {}

#[cfg(test)]
mod tests {
    #[test]
    fn own_test() {
        super::only_own_tests();
    }
}
