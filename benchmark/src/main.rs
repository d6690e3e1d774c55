//! Command-line front end; see `--help`.

use std::process::ExitCode;

use wsd_benchmark::alloc_count::CountingAlloc;
use wsd_benchmark::catalog::{self, WORKLOADS};
use wsd_benchmark::run::{run, Opts};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: wsd-benchmark --seed N [--seconds S] [--workload W] [--trace [0|1]] [--list]

  --seed N        generator and deployment seed (default 1)
  --seconds S     timed window per workload in seconds (default 30)
  --workload W    run one workload (default: all four, one after another)
  --trace [0|1]   1: traced run, per-layer metrics; 0 (default): timed run,
                  end-to-end metrics
  --list          print every workload and metric with unit, direction and bound
  --benchmark-json  print the repository's BENCHMARK.json

Prints one JSON object per workload as the last line(s) of stdout; notes go
to stderr. Exits 1 when an output was incorrect, 2 on bad arguments.";

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Opts {
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut workload: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                print!("{}", catalog::list());
                return ExitCode::SUCCESS;
            }
            "--benchmark-json" => {
                print!("{}", catalog::benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--trace" => {
                // The value is optional: a bare `--trace` means 1.
                opts.trace = match args.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--seed" | "--seconds" | "--workload" => {
                let Some(value) = args.next() else {
                    return usage(&format!("{arg} needs a value"));
                };
                match arg.as_str() {
                    "--seed" => match value.parse() {
                        Ok(seed) => opts.seed = seed,
                        Err(_) => return usage(&format!("--seed {value}: not a whole number")),
                    },
                    "--seconds" => match value.parse::<f64>() {
                        Ok(s) if s > 0.0 && s <= 3600.0 => opts.seconds = s,
                        _ => return usage(&format!("--seconds {value}: not in (0, 3600]")),
                    },
                    _ if WORKLOADS.iter().any(|w| w.name == value) => workload = Some(value),
                    _ => return usage(&format!("--workload {value}: no such workload")),
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    let mut all_correct = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| workload.as_deref().is_none_or(|name| name == w.name))
    {
        let outcome = run(w.name, &opts);
        all_correct &= outcome.correct;
        // A lone workload prints exactly the driver's keys.
        println!("{}", outcome.to_json(workload.is_none().then_some(w.name)));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
