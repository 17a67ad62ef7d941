//! Machine-readable renderers for diagnostic reports: JSON and SARIF.
//!
//! The human rendering lives on [`Report::render`]; this module adds
//! the two artifact formats the CI gate uploads:
//!
//! * [`report_json`] / [`reports_json`] — a plain JSON object per
//!   report (subject, counts, findings with structured locations);
//! * [`sarif`] — a minimal [SARIF 2.1.0] log: one run, one rule per
//!   distinct diagnostic code, one result per finding, with the
//!   structured [`Location`] mapped to a SARIF logical location.
//!
//! Both are hand-rendered (stable key order, two-space indentation) —
//! the workspace is offline and carries no serde; determinism matters
//! more than generality because the V1–V4 outputs are golden-snapshot
//! tested.
//!
//! [SARIF 2.1.0]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::diag::{Location, Report};

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn str_array(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_owned();
    }
    let inner: Vec<String> = items
        .iter()
        .map(|s| format!("{indent}  \"{}\"", escape(s)))
        .collect();
    format!("[\n{}\n{indent}]", inner.join(",\n"))
}

fn location_json(location: &Location, indent: &str) -> String {
    let mut fields = vec![format!("\"kind\": \"{}\"", location.kind())];
    match location {
        Location::None => {}
        Location::Config { field, value } => {
            fields.push(format!("\"field\": \"{}\"", escape(field)));
            fields.push(format!("\"value\": \"{}\"", escape(value)));
        }
        Location::Token { token } => fields.push(format!("\"token\": {token}")),
        Location::Sim { time_ns, channel } => {
            fields.push(format!("\"time_ns\": {time_ns}"));
            fields.push(format!("\"channel\": {channel}"));
        }
        Location::Model { path } => {
            fields.push(format!(
                "\"path\": {}",
                str_array(path, &format!("{indent}  "))
            ));
        }
    }
    let inner: Vec<String> = fields
        .into_iter()
        .map(|f| format!("{indent}  {f}"))
        .collect();
    format!("{{\n{}\n{indent}}}", inner.join(",\n"))
}

/// Renders one report as a JSON object at `indent` nesting levels.
pub fn report_json_at(report: &Report, level: usize) -> String {
    let pad = "  ".repeat(level);
    let mut out = String::new();
    let _ = writeln!(out, "{pad}{{");
    let _ = writeln!(out, "{pad}  \"subject\": \"{}\",", escape(&report.subject));
    let _ = writeln!(out, "{pad}  \"errors\": {},", report.errors());
    let _ = writeln!(out, "{pad}  \"warnings\": {},", report.warnings());
    let _ = writeln!(
        out,
        "{pad}  \"info\": {},",
        report.count(crate::diag::Severity::Info)
    );
    if report.findings.is_empty() {
        let _ = writeln!(out, "{pad}  \"findings\": []");
    } else {
        let _ = writeln!(out, "{pad}  \"findings\": [");
        let items: Vec<String> = report
            .findings
            .iter()
            .map(|f| {
                let fp = format!("{pad}    ");
                let mut o = String::new();
                let _ = writeln!(o, "{fp}{{");
                let _ = writeln!(o, "{fp}  \"code\": \"{}\",", escape(f.code));
                let _ = writeln!(o, "{fp}  \"severity\": \"{}\",", f.severity);
                let _ = writeln!(o, "{fp}  \"message\": \"{}\",", escape(&f.message));
                let _ = writeln!(o, "{fp}  \"span\": \"{}\",", escape(&f.span));
                let _ = writeln!(
                    o,
                    "{fp}  \"location\": {},",
                    location_json(&f.location, &format!("{fp}  "))
                );
                let _ = writeln!(
                    o,
                    "{fp}  \"notes\": {},",
                    str_array(&f.notes, &format!("{fp}  "))
                );
                let _ = writeln!(
                    o,
                    "{fp}  \"helps\": {}",
                    str_array(&f.helps, &format!("{fp}  "))
                );
                let _ = write!(o, "{fp}}}");
                o
            })
            .collect();
        let _ = writeln!(out, "{}", items.join(",\n"));
        let _ = writeln!(out, "{pad}  ]");
    }
    let _ = write!(out, "{pad}}}");
    out
}

/// Renders one report as a standalone JSON document.
pub fn report_json(report: &Report) -> String {
    let mut out = report_json_at(report, 0);
    out.push('\n');
    out
}

/// Renders several reports as one JSON document: an object with a
/// `reports` array (the `analyze --json` artifact).
pub fn reports_json(reports: &[Report]) -> String {
    reports_json_with_timings(reports, &[])
}

/// One value in a subject's `timings` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerMetric {
    /// A wall time in milliseconds, rendered with three decimals.
    Ms(f64),
    /// A deterministic work counter (states explored), rendered exactly.
    Count(usize),
}

/// Per-subject analysis cost entry for the `analyze --json` artifact:
/// the subject string plus `(key, value)` pairs, rendered as a
/// top-level `timings` array. Wall times vary run to run, so the golden
/// snapshots use [`reports_json`] (no `timings` key) and the CLI adds
/// this block only to its written artifacts.
pub type SubjectTimings = (String, Vec<(&'static str, LayerMetric)>);

/// [`reports_json`] plus a `timings` array reporting per-layer analysis
/// wall time for each subject. An empty `timings` slice renders the
/// exact [`reports_json`] document.
pub fn reports_json_with_timings(reports: &[Report], timings: &[SubjectTimings]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema_version\": 1,\n  \"reports\": [\n");
    let items: Vec<String> = reports.iter().map(|r| report_json_at(r, 2)).collect();
    out.push_str(&items.join(",\n"));
    out.push_str("\n  ]");
    if !timings.is_empty() {
        out.push_str(",\n  \"timings\": [\n");
        let items: Vec<String> = timings
            .iter()
            .map(|(subject, layers)| {
                let mut o = String::new();
                let _ = writeln!(o, "    {{");
                let _ = writeln!(o, "      \"subject\": \"{}\",", escape(subject));
                let fields: Vec<String> = layers
                    .iter()
                    .map(|(key, value)| match value {
                        LayerMetric::Ms(ms) => format!("      \"{key}\": {ms:.3}"),
                        LayerMetric::Count(n) => format!("      \"{key}\": {n}"),
                    })
                    .collect();
                let _ = writeln!(o, "{}", fields.join(",\n"));
                let _ = write!(o, "    }}");
                o
            })
            .collect();
        out.push_str(&items.join(",\n"));
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

/// Renders reports as one SARIF 2.1.0 log with a single run.
///
/// Rules are collected from the distinct diagnostic codes (sorted, so
/// the output is deterministic); each finding becomes a `result` whose
/// message concatenates the headline with its note/help lines and whose
/// logical location carries [`Location::logical_name`].
pub fn sarif(reports: &[Report]) -> String {
    // One rule per code, with the first-seen message as description.
    let mut rules: BTreeMap<&str, &str> = BTreeMap::new();
    for report in reports {
        for f in &report.findings {
            rules.entry(f.code).or_insert(&f.message);
        }
    }
    let rule_index: BTreeMap<&str, usize> =
        rules.keys().enumerate().map(|(i, &c)| (c, i)).collect();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"suprenum-analyzer\",\n");
    out.push_str(
        "          \"informationUri\": \"https://github.com/suprenum-monitor/suprenum-monitor\",\n",
    );
    if rules.is_empty() {
        out.push_str("          \"rules\": []\n");
    } else {
        out.push_str("          \"rules\": [\n");
        let items: Vec<String> = rules
            .iter()
            .map(|(code, desc)| {
                format!(
                    "            {{\n              \"id\": \"{}\",\n              \
                     \"shortDescription\": {{ \"text\": \"{}\" }}\n            }}",
                    escape(code),
                    escape(desc)
                )
            })
            .collect();
        out.push_str(&items.join(",\n"));
        out.push_str("\n          ]\n");
    }
    out.push_str("        }\n      },\n");

    let mut results: Vec<String> = Vec::new();
    for report in reports {
        for f in &report.findings {
            let mut text = f.message.clone();
            for n in &f.notes {
                let _ = write!(text, "\nnote: {n}");
            }
            for h in &f.helps {
                let _ = write!(text, "\nhelp: {h}");
            }
            let logical = if f.span.is_empty() {
                report.subject.clone()
            } else {
                f.span.clone()
            };
            let qualified = match &f.location {
                Location::None => logical,
                loc => loc.logical_name(),
            };
            results.push(format!(
                "        {{\n          \"ruleId\": \"{}\",\n          \"ruleIndex\": {},\n          \
                 \"level\": \"{}\",\n          \"message\": {{ \"text\": \"{}\" }},\n          \
                 \"locations\": [\n            {{\n              \"logicalLocations\": [\n                \
                 {{ \"fullyQualifiedName\": \"{}\" }}\n              ]\n            }}\n          ]\n        }}",
                escape(f.code),
                rule_index[f.code],
                f.severity.sarif_level(),
                escape(&text),
                escape(&qualified),
            ));
        }
    }
    if results.is_empty() {
        out.push_str("      \"results\": []\n");
    } else {
        out.push_str("      \"results\": [\n");
        out.push_str(&results.join(",\n"));
        out.push_str("\n      ]\n");
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Finding, Report};

    fn sample() -> Report {
        let mut r = Report::new("Version 3 (agents both, bundle 50)");
        r.push(
            Finding::error("AN-PROTO-002", "queue \"too small\"")
                .at_config("app.pixel_queue_capacity", 768)
                .note("demand is 2250")
                .help("raise the constant"),
        );
        r.push(Finding::info("AN-MODEL-003", "credits conserved"));
        r
    }

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_contains_structured_location() {
        let text = report_json(&sample());
        assert!(text.contains("\"code\": \"AN-PROTO-002\""));
        assert!(text.contains("\"kind\": \"config\""));
        assert!(text.contains("\"field\": \"app.pixel_queue_capacity\""));
        assert!(text.contains("\"value\": \"768\""));
        assert!(text.contains("queue \\\"too small\\\""));
        assert!(text.contains("\"errors\": 1"));
    }

    #[test]
    fn json_parses_as_balanced_braces() {
        // Without serde, a structural smoke check: balanced braces and
        // brackets outside string literals.
        let text = reports_json(&[sample(), Report::new("clean")]);
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in text.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn timings_block_is_additive() {
        let reports = [sample()];
        let bare = reports_json(&reports);
        assert_eq!(bare, reports_json_with_timings(&reports, &[]));
        let timed = reports_json_with_timings(
            &reports,
            &[(
                "version 3".to_owned(),
                vec![
                    ("token_ms", LayerMetric::Ms(0.25)),
                    ("model_ms", LayerMetric::Ms(12.5)),
                    ("flow_states", LayerMetric::Count(343)),
                ],
            )],
        );
        assert!(timed.contains("\"timings\": ["));
        assert!(timed.contains("\"token_ms\": 0.250"));
        assert!(timed.contains("\"model_ms\": 12.500"));
        assert!(timed.contains("\"flow_states\": 343\n"));
        // The reports array itself is unchanged by the timings block.
        assert!(timed.starts_with(bare.trim_end_matches("\n}\n")));
    }

    #[test]
    fn sarif_has_rules_and_results() {
        let text = sarif(&[sample()]);
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains("\"id\": \"AN-MODEL-003\""));
        assert!(text.contains("\"id\": \"AN-PROTO-002\""));
        assert!(text.contains("\"level\": \"error\""));
        assert!(text.contains("\"level\": \"note\""));
        assert!(text.contains("app.pixel_queue_capacity"));
        assert!(text.contains("note: demand is 2250"));
        // Rule indices refer to the sorted rule list: AN-MODEL-003 is 0.
        assert!(text.contains("\"ruleId\": \"AN-MODEL-003\",\n          \"ruleIndex\": 0"));
    }

    #[test]
    fn empty_reports_render_empty_runs() {
        let text = sarif(&[]);
        assert!(text.contains("\"rules\": []"));
        assert!(text.contains("\"results\": []"));
    }
}
