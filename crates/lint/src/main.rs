//! CLI for the workspace invariant checker.
//!
//! ```text
//! wsd-lint [--root PATH] [--check] [--json PATH] [--self]
//!          [--budget-ms N] [--explain RULE]
//! ```
//!
//! * default: report all unsuppressed findings, exit 0.
//! * `--check`: exit 1 when there is any unsuppressed finding.
//! * `--json PATH`: also write the report as JSON (`-` for stdout): an
//!   object with the `findings` and a `summary` of the finding and
//!   suppression counts and the analysis time.
//! * `--self`: lint `crates/lint` itself with the full rule set (no
//!   path scoping) — any finding fails, as under `--check`.
//! * `--budget-ms N`: fail (exit 1) when the analysis wall time exceeds
//!   `N` milliseconds — the linter's own performance is part of the
//!   contract (it runs on every `verify.sh lint`). The measured time is
//!   reported as `check_ms` in the `--json` summary either way, as an
//!   object: `total` plus one entry per engine stage (lexical, graph,
//!   interproc, typestate, and `waitgraph` for the lock-order graph), so
//!   budget regressions are attributable to a stage.
//! * `--explain RULE`: print the rule's engine kind and hint, and (for
//!   declarative rules) its `lint-rules.toml` row as written, then exit.

use std::path::PathBuf;
use std::process::ExitCode;

use wsd_lint::{analyze_workspace, rules, ruleset};

struct Opts {
    root: PathBuf,
    check: bool,
    json_path: Option<String>,
    self_mode: bool,
    budget_ms: Option<u64>,
    explain: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        check: false,
        json_path: None,
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
            "--json" => {
                opts.json_path = Some(args.next().ok_or("--json needs a path (or -)")?);
            }
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
                    "wsd-lint [--root PATH] [--check] [--json PATH] [--self] \
                     [--budget-ms N] [--explain RULE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Escapes `s` for embedding inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `--json` payload: the findings and a summary with the stage
/// breakdown of `check_ms`.
fn report_json(
    findings: &[rules::Finding],
    suppressions: usize,
    check_ms: u128,
    timings: &[(&'static str, u128)],
) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (idx, f) in findings.iter().enumerate() {
        let witness = match &f.witness {
            Some(w) => format!(", \"witness\": \"{}\"", escape(w)),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"excerpt\": \"{}\"{}}}{}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.excerpt),
            witness,
            if idx + 1 == findings.len() {
                "\n"
            } else {
                ",\n"
            }
        ));
    }
    let stages: String = timings
        .iter()
        .map(|(name, ms)| format!(", \"{name}\": {ms}"))
        .collect();
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"findings\": {}, \"suppressions\": {suppressions}, \"check_ms\": {{\"total\": {check_ms}{stages}}}}}\n}}\n",
        findings.len()
    ));
    out
}

fn write_out(path: &str, text: &str) -> Result<(), ExitCode> {
    if path == "-" {
        print!("{text}");
        Ok(())
        // wsd-lint: allow(raw-file-io): the JSON report is an artifact, not durable state
    } else if let Err(e) = std::fs::write(path, text) {
        eprintln!("wsd-lint: cannot write {path}: {e}");
        Err(ExitCode::from(2))
    } else {
        Ok(())
    }
}

/// `--explain RULE`: engine kind, then a coded rule's hint or a
/// declarative rule's `lint-rules.toml` row exactly as written there
/// (its `doc` line is the hint).
fn explain(rule: &str) -> ExitCode {
    let rs = ruleset::embedded();
    if let Some(row) = rs.row(rule) {
        println!("{rule} — typestate automaton (path-sensitive dataflow)");
        println!("\nlint-rules.toml, line {}:\n{}", row.line, row.text);
        ExitCode::SUCCESS
    } else if rules::RULE_NAMES.contains(&rule) {
        println!("{rule} — built-in (lexical/interprocedural; no TOML row)");
        println!("  -> {}", rules::rule_hint(rule));
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "wsd-lint: unknown rule {rule:?}; known rules: {}",
            rs.rule_names().collect::<Vec<_>>().join(", ")
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

    // Human output: findings grouped per file, witness and hint
    // indented under each.
    let mut last_file = "";
    for f in findings {
        if f.file != last_file {
            println!("--- {}", f.file);
            last_file = &f.file;
        }
        println!("{:<5} [{}] {}", f.line, f.rule, f.excerpt);
        if let Some(w) = &f.witness {
            println!("       witness: {w}");
        }
        println!("       -> {}", ruleset::embedded().hint(f.rule));
    }
    if opts.self_mode && findings.is_empty() {
        println!(
            "wsd-lint --self: clean ({} fn(s) in the self call graph)",
            analysis.graph.fns.len()
        );
    } else {
        println!(
            "wsd-lint: {} finding(s), {} suppression(s) with reasons, analysis {check_ms}ms",
            findings.len(),
            analysis.suppressions
        );
    }

    if let Some(path) = &opts.json_path {
        let text = report_json(findings, analysis.suppressions, check_ms, &analysis.timings);
        if let Err(code) = write_out(path, &text) {
            return code;
        }
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
