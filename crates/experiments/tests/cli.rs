//! The `experiments` binary's argument handling, run as a process.

use std::process::Command;

/// A run of zero seconds makes every rate 0/0, which no JSON number can
/// carry; it is refused like any other bad value, before anything runs.
#[test]
fn zero_seconds_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--table1", "--fig5", "--quick", "--seconds", "0"])
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad --seconds value \"0\""), "{stderr}");
    assert!(stderr.contains("usage: experiments"), "{stderr}");
    assert!(out.stdout.is_empty());
}
