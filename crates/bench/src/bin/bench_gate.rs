//! Bench regression gate: compares a fresh benchmark JSON against the
//! checked-in reference and fails on latency regressions.
//!
//! ```text
//! bench_gate <reference.json> <fresh.json>
//! ```
//!
//! Both files are flattened to dotted-path → number maps
//! (`sweeps.2.reactor.p50_us` → 9.3). Keys present in *both* files and
//! matching a latency metric (`p50` or `ns_per` in the path) are
//! compared; the gate fails when a fresh value exceeds the reference by
//! more than the threshold (default 20%, `BENCH_GATE_THRESHOLD=0.30`
//! overrides). Throughput-free smoke runs only cover a subset of the
//! sweeps, so reference-only keys are reported but never fatal.
//!
//! A missing *reference* file is a warning, not a failure (exit 0): a
//! branch adding a new bench has no checked-in baseline yet, and the
//! gate must not block the run that would create one. A missing *fresh*
//! file is always an error — the bench that was supposed to produce it
//! did not run.
//!
//! Hand-rolled JSON parsing: the gate must run in the offline build
//! with no registry deps, exactly like wsd-lint.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Recursive-descent JSON reader producing only what the gate needs:
/// every number, keyed by its dotted path.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            b: text.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    if let Some(&e) = self.b.get(self.i) {
                        self.i += 1;
                        out.push(match e {
                            b'n' => '\n',
                            b't' => '\t',
                            other => other as char,
                        });
                    }
                }
                other => out.push(other as char),
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self, path: &str, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.expect(b'{')?;
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    let sub = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    self.value(&sub, out)?;
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                let mut idx = 0usize;
                loop {
                    self.value(&format!("{path}.{idx}"), out)?;
                    idx += 1;
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_alphabetic())
                {
                    self.i += 1;
                }
                Ok(())
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.b.get(self.i).is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
                let n: f64 = text
                    .parse()
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
                out.insert(path.to_string(), n);
                Ok(())
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }
}

/// Flattens a JSON document to dotted-path → number.
fn flatten(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut p = Parser::new(text);
    p.value("", &mut out)?;
    Ok(out)
}

/// Latency metrics where "bigger" means "slower": gate only these.
fn is_latency_key(key: &str) -> bool {
    key.contains("p50") || key.contains("ns_per")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [reference_path, fresh_path] = match args.as_slice() {
        [a, b] => [a.clone(), b.clone()],
        _ => {
            eprintln!("usage: bench_gate <reference.json> <fresh.json>");
            return ExitCode::from(2);
        }
    };
    let threshold: f64 = std::env::var("BENCH_GATE_THRESHOLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.20);

    let load = |path: &str| -> Result<BTreeMap<String, f64>, String> {
        // wsd-lint: allow(raw-file-io): bench JSON artifacts, not durable state
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        flatten(&text).map_err(|e| format!("{path}: {e}"))
    };
    // The fresh file first: its absence is fatal no matter what (the
    // bench didn't run), including when the reference is also missing.
    let fresh = match load(&fresh_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let reference = match load(&reference_path) {
        Ok(r) => r,
        Err(e) if !std::path::Path::new(&reference_path).exists() => {
            eprintln!("bench_gate: WARN — no reference baseline ({e}); skipping gate");
            eprintln!("bench_gate: check in the fresh run as {reference_path} to arm it");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            // Present but unreadable/unparsable: that's corruption, not
            // a missing baseline.
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for (key, &base) in reference.iter().filter(|(k, _)| is_latency_key(k)) {
        let Some(&cur) = fresh.get(key) else {
            // Smoke runs cover a subset of the reference sweeps.
            println!("bench_gate: ~ {key} only in reference (base {base}) — skipped");
            continue;
        };
        compared += 1;
        let ratio = if base > 0.0 { cur / base } else { 1.0 };
        let verdict = if ratio > 1.0 + threshold {
            regressions.push((key.clone(), base, cur, ratio));
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {verdict:<10} {key}: {base} -> {cur} ({:+.1}%)",
            (ratio - 1.0) * 100.0
        );
    }

    if compared == 0 {
        eprintln!("bench_gate: no shared latency keys between {reference_path} and {fresh_path}");
        return ExitCode::from(2);
    }
    if !regressions.is_empty() {
        eprintln!(
            "bench_gate: FAIL — {} latency metric(s) regressed more than {:.0}%:",
            regressions.len(),
            threshold * 100.0
        );
        for (key, base, cur, ratio) in &regressions {
            eprintln!("  {key}: {base} -> {cur} ({:+.1}%)", (ratio - 1.0) * 100.0);
        }
        return ExitCode::FAILURE;
    }
    println!(
        "bench_gate: PASS — {compared} latency metric(s) within {:.0}% of reference",
        threshold * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_nested_objects_and_arrays() {
        let m = flatten(
            r#"{"a": {"b": 1.5}, "sweeps": [{"p50_us": 2.0}, {"p50_us": 3.0}], "s": "x"}"#,
        )
        .unwrap();
        assert_eq!(m.get("a.b"), Some(&1.5));
        assert_eq!(m.get("sweeps.0.p50_us"), Some(&2.0));
        assert_eq!(m.get("sweeps.1.p50_us"), Some(&3.0));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn latency_keys_are_the_gated_subset() {
        assert!(is_latency_key("sweeps.0.reactor.p50_us"));
        assert!(is_latency_key("rewrite.splice_ns_per_op"));
        assert!(is_latency_key("drain_ns_per_msg.batch_4"));
        assert!(!is_latency_key("sweeps.0.reactor.p99_us"));
        assert!(!is_latency_key("samples"));
    }

    #[test]
    fn booleans_nulls_and_negative_exponents_parse() {
        let m = flatten(r#"{"ok": true, "none": null, "n": -1.5e2}"#).unwrap();
        assert_eq!(m.get("n"), Some(&-150.0));
        assert_eq!(m.len(), 1);
    }
}
