//! CLI for the workspace invariant checker.
//!
//! ```text
//! wsd-lint [--root PATH] [--check] [--json PATH] [--sarif PATH]
//!          [--update-baseline] [--self] [--budget-ms N]
//!          [--explain RULE]
//! ```
//!
//! * default: report all findings against the ratchet baseline
//!   (`<root>/lint-baseline.json`), exit 0.
//! * `--check`: exit 1 when any (file, rule) pair exceeds its baselined
//!   count — i.e. on *new* findings only.
//! * `--update-baseline`: rewrite the baseline to the current counts
//!   (used after burning down debt, never to absorb new debt casually).
//! * `--json PATH`: also write the report as JSON (`-` for stdout). The
//!   payload is an object: `findings` plus the ratchet summary
//!   (`burned_down` included, so machine consumers see burn-down too,
//!   not just the diff output).
//! * `--sarif PATH`: also write findings as SARIF 2.1.0 for CI
//!   annotation (`-` for stdout).
//! * `--self`: lint `crates/lint` itself with the full rule set (no
//!   path scoping, no baseline tolerance — any finding fails).
//! * `--budget-ms N`: fail (exit 1) when the analysis wall time exceeds
//!   `N` milliseconds — the linter's own performance is part of the
//!   contract (it runs on every `verify.sh lint`). The measured time is
//!   reported as `check_ms` in the `--json` summary either way, as an
//!   object: `total` plus one entry per engine stage (lexical, graph,
//!   interproc, dataflow, typestate, waitgraph), so budget regressions
//!   are attributable to a stage.
//! * `--explain RULE`: print the rule's engine kind and hint, and (for
//!   declarative rules) its `lint-rules.toml` row as written, then exit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use wsd_lint::{analyze_workspace, baseline, json, rules, ruleset, sarif};

struct Opts {
    root: PathBuf,
    check: bool,
    update_baseline: bool,
    json_path: Option<String>,
    sarif_path: Option<String>,
    self_mode: bool,
    budget_ms: Option<u64>,
    explain: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        check: false,
        update_baseline: false,
        json_path: None,
        sarif_path: None,
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
            "--update-baseline" => opts.update_baseline = true,
            "--json" => {
                opts.json_path = Some(args.next().ok_or("--json needs a path (or -)")?);
            }
            "--sarif" => {
                opts.sarif_path = Some(args.next().ok_or("--sarif needs a path (or -)")?);
            }
            "--self" => opts.self_mode = true,
            "--budget-ms" => {
                let n = args.next().ok_or("--budget-ms needs a number")?;
                opts.budget_ms =
                    Some(n.parse().map_err(|_| format!("bad --budget-ms value {n:?}"))?);
            }
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain needs a rule name")?);
            }
            "--help" | "-h" => {
                println!(
                    "wsd-lint [--root PATH] [--check] [--json PATH] [--sarif PATH] \
                     [--update-baseline] [--self] [--budget-ms N] [--explain RULE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The `--json` payload: an object so the ratchet summary (including
/// burned-down pairs) travels with the findings — not only in the
/// human diff output.
fn report_json(
    findings: &[rules::Finding],
    new_keys: &BTreeMap<String, ()>,
    report: &baseline::RatchetReport,
    suppressions: usize,
    check_ms: u128,
    timings: &[(&'static str, u128)],
) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (idx, f) in findings.iter().enumerate() {
        let is_new = new_keys.contains_key(&baseline::key(&f.file, f.rule));
        let witness = match &f.witness {
            Some(w) => format!(", \"witness\": \"{}\"", json::escape(w)),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"new\": {}, \"excerpt\": \"{}\"{}}}{}",
            json::escape(f.rule),
            json::escape(&f.file),
            f.line,
            is_new,
            json::escape(&f.excerpt),
            witness,
            if idx + 1 == findings.len() { "\n" } else { ",\n" }
        ));
    }
    out.push_str("  ],\n  \"burned_down\": [\n");
    for (idx, (k, base_n, cur)) in report.burned_down.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"baseline\": {}, \"current\": {}}}{}",
            json::escape(k),
            base_n,
            cur,
            if idx + 1 == report.burned_down.len() {
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
        "  ],\n  \"summary\": {{\"new\": {}, \"tolerated\": {}, \"burned_down\": {}, \"suppressions\": {}, \"check_ms\": {{\"total\": {}{}}}}}\n}}\n",
        report.new_findings.len(),
        report.tolerated,
        report.burned_down.len(),
        suppressions,
        check_ms,
        stages
    ));
    out
}

fn write_out(path: &str, text: &str) -> Result<(), ExitCode> {
    if path == "-" {
        print!("{text}");
        Ok(())
        // wsd-lint: allow(raw-file-io): report artifacts (SARIF/JSON), not durable state
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
        println!("{rule} — {}", row.engine());
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
    let (root, self_mode) = if opts.self_mode {
        (opts.root.join("crates").join("lint"), true)
    } else {
        (opts.root.clone(), false)
    };

    // wsd-lint: allow(raw-clock): measuring the linter's own wall time, not event time
    let t0 = std::time::Instant::now();
    let analysis = match analyze_workspace(&root, self_mode) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wsd-lint: walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    let check_ms = t0.elapsed().as_millis();
    let (findings, suppression_count) = (analysis.findings, analysis.suppressions);

    if self_mode {
        for f in &findings {
            println!("! {}:{} [{}] {}", f.file, f.line, f.rule, f.excerpt);
            if let Some(w) = &f.witness {
                println!("       witness: {w}");
            }
        }
        if findings.is_empty() {
            println!(
                "wsd-lint --self: clean ({} fn(s) in the self call graph)",
                analysis.graph.fns.len()
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "wsd-lint --self: FAIL — {} finding(s); the linter holds itself to the full rule set",
            findings.len()
        );
        return ExitCode::FAILURE;
    }

    let baseline_path = opts.root.join("lint-baseline.json");
    // wsd-lint: allow(raw-file-io): the ratchet baseline is a checked-in text file
    let base = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("wsd-lint: bad baseline {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => BTreeMap::new(), // no baseline file = empty baseline
    };

    if opts.update_baseline {
        let text = baseline::render(&findings);
        // wsd-lint: allow(raw-file-io): rewriting the ratchet baseline on request
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            eprintln!("wsd-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "wsd-lint: baseline rewritten with {} finding(s) across {} (file, rule) pair(s)",
            findings.len(),
            baseline::counts(&findings).len()
        );
        return ExitCode::SUCCESS;
    }

    let report = baseline::compare(&findings, &base);
    let new_keys: BTreeMap<String, ()> = report
        .new_findings
        .iter()
        .map(|f| (baseline::key(&f.file, f.rule), ()))
        .collect();

    // Human diff-style output: findings grouped per file, `+` marks new
    // (above-baseline) findings, `=` marks tolerated baselined debt.
    let mut last_file = "";
    for f in &findings {
        if f.file != last_file {
            println!("--- {}", f.file);
            last_file = &f.file;
        }
        let marker = if new_keys.contains_key(&baseline::key(&f.file, f.rule)) {
            '+'
        } else {
            '='
        };
        println!("{}{:<5} [{}] {}", marker, f.line, f.rule, f.excerpt);
        if let Some(w) = &f.witness {
            println!("       witness: {w}");
        }
        println!("       -> {}", ruleset::embedded().hint(f.rule));
    }
    for (k, base_n, cur) in &report.burned_down {
        println!(
            "~ {k}: baseline {base_n} -> {cur} — debt burned down; run --update-baseline to ratchet"
        );
    }
    println!(
        "wsd-lint: {} new, {} tolerated (baseline), {} burned-down pair(s), {} suppression(s) with reasons, analysis {check_ms}ms",
        report.new_findings.len(),
        report.tolerated,
        report.burned_down.len(),
        suppression_count
    );

    if let Some(path) = &opts.json_path {
        let text = report_json(
            &findings,
            &new_keys,
            &report,
            suppression_count,
            check_ms,
            &analysis.timings,
        );
        if let Err(code) = write_out(path, &text) {
            return code;
        }
    }
    if let Some(path) = &opts.sarif_path {
        let text = sarif::render(&findings, ruleset::embedded());
        if let Err(code) = write_out(path, &text) {
            return code;
        }
    }

    if opts.check && !report.new_findings.is_empty() {
        eprintln!(
            "wsd-lint: FAIL — {} finding(s) above baseline (fix, or suppress with \
             `// wsd-lint: allow(<rule>): <reason>`)",
            report.new_findings.len()
        );
        return ExitCode::FAILURE;
    }
    if let Some(budget) = opts.budget_ms {
        if check_ms > u128::from(budget) {
            eprintln!(
                "wsd-lint: FAIL — analysis took {check_ms}ms, over the {budget}ms budget"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
