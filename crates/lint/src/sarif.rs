//! Minimal SARIF 2.1.0 emitter for CI annotation.
//!
//! Emits one run with the `wsd-lint` driver, a rule entry per
//! [`Ruleset::rule_names`] member (coded rules, then the rows of
//! `lint-rules.toml`, each described by its hint), and one result per
//! finding.
//! Interprocedural witnesses ride along in the message text so CI
//! surfaces the call chain, not just the sink line, and findings that
//! carry a step-by-step path (obligation chains, taint
//! source→sanitizer-miss→sink traces, gauge witness paths) emit it as
//! a `codeFlows` thread flow so code-scanning UIs render the whole
//! route. Only the subset of the schema that GitHub/GitLab
//! code-scanning ingestion reads is produced — hand-rolled like the
//! rest of the crate (no serde).

use crate::json::escape;
use crate::rules::Finding;
use crate::ruleset::Ruleset;

/// Renders one finding's `flow` as a SARIF `codeFlows` property
/// (single thread flow, one location per step). Empty string when the
/// finding has no recorded path.
fn code_flows(f: &Finding) -> String {
    if f.flow.is_empty() {
        return String::new();
    }
    let steps: Vec<String> = f
        .flow
        .iter()
        .map(|s| {
            format!(
                "{{\"location\": {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}, \"message\": {{\"text\": \"{}\"}}}}}}",
                escape(&s.file),
                s.line.max(1),
                escape(&s.message)
            )
        })
        .collect();
    format!(
        ", \"codeFlows\": [{{\"threadFlows\": [{{\"locations\": [{}]}}]}}]",
        steps.join(", ")
    )
}

/// Renders findings as a SARIF 2.1.0 document; `ruleset` supplies the
/// `rules[]` metadata.
pub fn render(findings: &[Finding], ruleset: &Ruleset) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"wsd-lint\",\n");
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");
    let rules: Vec<String> = ruleset
        .rule_names()
        .map(|rule| {
            format!(
                "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
                escape(rule),
                escape(ruleset.hint(rule))
            )
        })
        .collect();
    out.push_str(&rules.join(",\n"));
    out.push('\n');
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let mut message = f.excerpt.clone();
        if let Some(w) = &f.witness {
            message.push_str(" [witness: ");
            message.push_str(w);
            message.push(']');
        }
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]{}}}{}\n",
            escape(f.rule),
            escape(&message),
            escape(&f.file),
            f.line.max(1),
            code_flows(f),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FlowStep;
    use crate::ruleset::embedded;

    #[test]
    fn sarif_shape_and_escaping() {
        let findings = vec![Finding {
            rule: "blocking-under-lock",
            file: "crates/x/src/a.rs".to_string(),
            line: 7,
            excerpt: "join while \"held\"".to_string(),
            witness: Some("A::f (crates/x/src/a.rs:7) -> thread join".to_string()),
            flow: Vec::new(),
        }];
        let doc = render(&findings, embedded());
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"ruleId\": \"blocking-under-lock\""));
        assert!(doc.contains("\"startLine\": 7"));
        assert!(doc.contains("\\\"held\\\""));
        assert!(doc.contains("witness: A::f"));
        // No flow steps -> no codeFlows property.
        assert!(!doc.contains("codeFlows"));
        // Every rule is declared, coded and declarative alike.
        for rule in embedded().rule_names() {
            assert!(doc.contains(&format!("\"id\": \"{rule}\"")));
        }
    }

    #[test]
    fn code_flows_render_each_step_in_order() {
        let findings = vec![Finding {
            rule: "unvalidated-envelope-to-sink",
            file: "crates/store/src/wal.rs".to_string(),
            line: 9,
            excerpt: "unvalidated bytes reach `append`".to_string(),
            witness: Some("tainted at wal.rs:3".to_string()),
            flow: vec![
                FlowStep {
                    file: "crates/store/src/wal.rs".to_string(),
                    line: 3,
                    message: "tainted by `try_read`".to_string(),
                },
                FlowStep {
                    file: "crates/store/src/wal.rs".to_string(),
                    line: 9,
                    message: "reaches sink `append` unsanitized".to_string(),
                },
            ],
        }];
        let doc = render(&findings, embedded());
        assert!(doc.contains("\"codeFlows\""));
        assert!(doc.contains("\"threadFlows\""));
        let a = doc.find("tainted by `try_read`").unwrap();
        let b = doc.find("reaches sink `append` unsanitized").unwrap();
        assert!(a < b, "flow steps must render in path order");
    }

    #[test]
    fn empty_findings_still_valid() {
        let doc = render(&[], embedded());
        assert!(doc.contains("\"results\": [\n      ]"));
    }
}
