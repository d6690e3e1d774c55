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

/// The per-host CPU split is a command: one table, a column per
/// simulated host plus the simulator's loop and the total.
#[test]
fn cpu_split_prints_a_column_per_host() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--cpu-split", "fig6", "--quick", "--seconds", "2"])
        .output()
        .expect("run experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let header = stdout.lines().nth(1).unwrap_or_default();
    let columns: Vec<&str> = header.split_whitespace().collect();
    assert_eq!(columns, ["ws", "clients", "dispatcher", "msgbox", "netsim_loop", "total"]);
    let row = stdout.lines().nth(2).unwrap_or_default();
    let ms: Vec<f64> = row.split_whitespace().map(|v| v.parse().expect("a number")).collect();
    assert_eq!(ms.len(), columns.len(), "{stdout}");
    assert!(ms[..4].iter().all(|&v| v > 0.0), "{stdout}");
}

#[test]
fn cpu_split_of_another_figure_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--cpu-split", "fig4"])
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no CPU split for \"fig4\""), "{stderr}");
}
