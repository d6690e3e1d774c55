//! The `/proc/self/stat` and `/proc/self/status` parsers, on fixed text
//! and on the live files.

use wsd_benchmark::procfs::{cpu_us, parse_stat, parse_status, status, Stat, Status};

const STAT: &str = "9713 (wsd-benchmark) R 9000 9713 9000 34816 9713 4194304 1502 0 0 0 \
                    417 93 0 0 20 0 37 0 1234567 2310144000 5017 18446744073709551615 \
                    1 1 0 0 0 0 0 4096 17642 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

#[test]
fn stat_fields_are_counted_after_the_command_name() {
    assert_eq!(
        parse_stat(STAT),
        Some(Stat {
            utime_ticks: 417,
            stime_ticks: 93,
            num_threads: 37,
        })
    );
}

#[test]
fn stat_survives_spaces_and_parentheses_in_the_command_name() {
    let tricky = STAT.replace("(wsd-benchmark)", "(evil) name (x) 1 2 3)");
    assert_eq!(parse_stat(&tricky), parse_stat(STAT));
}

#[test]
fn stat_rejects_truncated_text() {
    assert_eq!(parse_stat(""), None);
    assert_eq!(parse_stat("1 (x) R 2 3"), None);
    assert_eq!(parse_stat("no parenthesis at all"), None);
}

#[test]
fn status_reads_the_four_keys_and_ignores_the_rest() {
    let text = "Name:\twsd-benchmark\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t  225600 kB\n\
                VmHWM:\t   20068 kB\nVmRSS:\t   19000 kB\nThreads:\t37\n\
                voluntary_ctxt_switches:\t1201\nnonvoluntary_ctxt_switches:\t88\n";
    assert_eq!(
        parse_status(text),
        Status {
            vm_hwm_kb: 20068,
            threads: 37,
            voluntary_ctxt_switches: 1201,
            nonvoluntary_ctxt_switches: 88,
        }
    );
    assert_eq!(parse_status("garbage\nThreads: many\n"), Status::default());
}

#[test]
fn live_files_parse() {
    // Burn a little CPU so the tick counter is not zero on a fast start.
    let mut x = 0u64;
    for i in 0..50_000_000u64 {
        x = x.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(x);
    assert!(cpu_us() > 0);
    let s = status();
    assert!(s.threads >= 1);
    assert!(s.vm_hwm_kb > 0);
}
