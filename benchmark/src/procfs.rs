//! Process accounting read from `/proc/self`: CPU time, thread count,
//! peak resident set and context switches. Parsers are separate from
//! the file reads so they can be tested on fixed text.

/// Microseconds per clock tick in `/proc/<pid>/stat`: the kernel
/// reports `utime`/`stime` in `USER_HZ`, which is 100 on every Linux ABI.
const US_PER_TICK: u64 = 10_000;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// User-mode ticks.
    pub utime_ticks: u64,
    /// Kernel-mode ticks.
    pub stime_ticks: u64,
    /// Threads in the process.
    pub num_threads: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime/stime are fields 14/15,
    // num_threads field 20.
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(Stat {
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
        num_threads: field(20)?,
    })
}

/// The fields of `/proc/<pid>/status` the benchmark uses (absent keys
/// read as 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    /// Peak resident set size in KiB (`VmHWM`).
    pub vm_hwm_kb: u64,
    /// Threads in the process.
    pub threads: u64,
    /// Voluntary context switches of this task.
    pub voluntary_ctxt_switches: u64,
    /// Involuntary context switches of this task.
    pub nonvoluntary_ctxt_switches: u64,
}

/// Parses `/proc/<pid>/status` text.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = value
            .split_ascii_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        match key {
            "VmHWM" => s.vm_hwm_kb = number,
            "Threads" => s.threads = number,
            "voluntary_ctxt_switches" => s.voluntary_ctxt_switches = number,
            "nonvoluntary_ctxt_switches" => s.nonvoluntary_ctxt_switches = number,
            _ => {}
        }
    }
    s
}

/// Process CPU time (user + kernel, all threads) in microseconds, at
/// tick resolution. 0 when `/proc` is unreadable.
pub fn cpu_us() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0, |s| (s.utime_ticks + s.stime_ticks) * US_PER_TICK)
}

/// This process's `/proc/self/status`.
pub fn status() -> Status {
    std::fs::read_to_string("/proc/self/status")
        .map(|t| parse_status(&t))
        .unwrap_or_default()
}

/// Context switches (voluntary + involuntary) summed over the threads
/// alive now. Threads that exited take their counts with them, so a
/// difference of two readings is a lower bound.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|text| {
            let s = parse_status(&text);
            s.voluntary_ctxt_switches + s.nonvoluntary_ctxt_switches
        })
        .sum()
}
