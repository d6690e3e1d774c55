//! CLI for the workspace invariant checker.
//!
//! ```text
//! wsd-lint [--root PATH] [--check] [--self] [--budget-ms N] [--explain RULE]
//! ```
//!
//! * default: report all unsuppressed findings, exit 0.
//! * `--check`: exit 1 when there is any unsuppressed finding.
//! * `--self`: lint `crates/lint` itself with the full rule set (no
//!   path scoping) — any finding fails, as under `--check`.
//! * `--budget-ms N`: fail (exit 1) when the analysis wall time exceeds
//!   `N` milliseconds — the linter's own performance is part of the
//!   contract (it runs on every `verify.sh lint`).
//! * `--explain RULE`: print what the rule protects, then exit.

use std::path::PathBuf;
use std::process::ExitCode;

use wsd_lint::{analyze_workspace, rules};

struct Opts {
    root: PathBuf,
    check: bool,
    self_mode: bool,
    budget_ms: Option<u64>,
    explain: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        check: false,
        self_mode: false,
        budget_ms: None,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a path")?);
            }
            "--check" => opts.check = true,
            "--self" => opts.self_mode = true,
            "--budget-ms" => {
                let n = args.next().ok_or("--budget-ms needs a number")?;
                opts.budget_ms = Some(
                    n.parse()
                        .map_err(|_| format!("bad --budget-ms value {n:?}"))?,
                );
            }
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain needs a rule name")?);
            }
            "--help" | "-h" => {
                println!(
                    "wsd-lint [--root PATH] [--check] [--self] [--budget-ms N] [--explain RULE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// `--explain RULE`: what the rule protects.
fn explain(rule: &str) -> ExitCode {
    if rules::RULE_NAMES.contains(&rule) {
        println!("{rule}\n  -> {}", rules::rule_hint(rule));
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "wsd-lint: unknown rule {rule:?}; known rules: {}",
            rules::RULE_NAMES.join(", ")
        );
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wsd-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = &opts.explain {
        return explain(rule);
    }

    // `--self`: the linter lints itself, full rule set, zero tolerance.
    let root = if opts.self_mode {
        opts.root.join("crates").join("lint")
    } else {
        opts.root.clone()
    };

    // wsd-lint: allow(raw-clock): measuring the linter's own wall time, not event time
    let t0 = std::time::Instant::now();
    let analysis = match analyze_workspace(&root, opts.self_mode) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wsd-lint: walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    let check_ms = t0.elapsed().as_millis();
    let findings = &analysis.findings;

    // Human output: findings grouped per file, the hint indented under
    // each.
    let mut last_file = "";
    for f in findings {
        if f.file != last_file {
            println!("--- {}", f.file);
            last_file = &f.file;
        }
        println!("{:<5} [{}] {}", f.line, f.rule, f.excerpt);
        println!("       -> {}", rules::rule_hint(f.rule));
    }
    if opts.self_mode && findings.is_empty() {
        println!("wsd-lint --self: clean ({} file(s))", analysis.files);
    } else {
        println!(
            "wsd-lint: {} finding(s), {} suppression(s) with reasons, analysis {check_ms}ms",
            findings.len(),
            analysis.suppressions
        );
    }

    if (opts.check || opts.self_mode) && !findings.is_empty() {
        eprintln!(
            "wsd-lint: FAIL — {} finding(s) (fix, or suppress with \
             `// wsd-lint: allow(<rule>): <reason>`)",
            findings.len()
        );
        return ExitCode::FAILURE;
    }
    if let Some(budget) = opts.budget_ms {
        if check_ms > u128::from(budget) {
            eprintln!("wsd-lint: FAIL — analysis took {check_ms}ms, over the {budget}ms budget");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
