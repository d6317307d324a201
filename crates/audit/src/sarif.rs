//! SARIF 2.1.0 output for GitHub code scanning.
//!
//! The shape follows the subset `github/codeql-action/upload-sarif`
//! consumes: one run, `tool.driver` naming the tool and its rule
//! catalog, and one `result` per finding with `ruleId`, `level`,
//! `message.text`, and a single physical location
//! (`artifactLocation.uri` + `region.startLine`). URIs are the
//! workspace-relative slash paths the audit already reports. The
//! document is built as a `gve_obs::json` value and rendered compactly.

use crate::rules::{Severity, Violation, RULE_IDS};
use gve_obs::json::Json;

/// Static one-line description per rule, surfaced in the SARIF rule
/// catalog (and the code-scanning UI's rule index).
fn rule_description(rule: &str) -> &'static str {
    match rule {
        "unsafe-safety" => "unsafe block without a SAFETY comment or # Safety doc section",
        "atomic-ordering" => "Ordering::Relaxed outside files the policy marks relaxed-ok",
        "hotpath-panic" => "panic/unwrap/expect/assert in a declared hot path",
        "rayon-blocking" => "blocking call inside a parallel iterator closure",
        "lock-order" => {
            "nested lock acquisition that inverts, escapes, or cycles the declared lock hierarchy"
        }
        "hotpath-alloc" => "allocating construct in a declared allocation-free hot path",
        "guard-across-blocking" => "lock guard held across a blocking call",
        "stale-suppression" => "audit:allow marker or policy entry that no longer matches anything",
        _ => "gve-audit finding",
    }
}

fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

/// Renders findings as a SARIF 2.1.0 document.
pub fn to_sarif(findings: &[Violation]) -> String {
    let rules: Vec<Json> = RULE_IDS
        .iter()
        .map(|id| {
            Json::obj([
                ("id", Json::from(*id)),
                ("name", Json::from(*id)),
                (
                    "shortDescription",
                    Json::obj([("text", Json::from(rule_description(id)))]),
                ),
            ])
        })
        .collect();
    let results: Vec<Json> = findings
        .iter()
        .map(|v| {
            Json::obj([
                ("ruleId", Json::from(v.rule)),
                ("level", Json::from(level(v.severity))),
                (
                    "message",
                    Json::obj([("text", Json::from(v.message.as_str()))]),
                ),
                (
                    "locations",
                    Json::Arr(vec![Json::obj([(
                        "physicalLocation",
                        Json::obj([
                            (
                                "artifactLocation",
                                Json::obj([("uri", Json::from(v.path.as_str()))]),
                            ),
                            (
                                "region",
                                Json::obj([("startLine", Json::from(v.line.max(1)))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        (
            "$schema",
            Json::from("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        ),
        ("version", Json::from("2.1.0")),
        (
            "runs",
            Json::Arr(vec![Json::obj([
                (
                    "tool",
                    Json::obj([(
                        "driver",
                        Json::obj([
                            ("name", Json::from("gve-audit")),
                            ("informationUri", Json::from("https://example.invalid/gve-audit")),
                            ("rules", Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", Json::Arr(results)),
            ])]),
        ),
    ]);
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::violation_at;

    #[test]
    fn sarif_document_has_the_2_1_0_shape() {
        let findings = vec![
            violation_at(
                "crates/x/src/lib.rs",
                "lock-order",
                7,
                Severity::Error,
                "cycle a → b → a".to_string(),
            ),
            violation_at(
                "audit.policy",
                "stale-suppression",
                3,
                Severity::Warning,
                "unused".to_string(),
            ),
        ];
        let doc = gve_obs::json::parse(&to_sarif(&findings)).expect("valid json");
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        assert!(doc
            .get("$schema")
            .and_then(Json::as_str)
            .expect("schema")
            .contains("sarif-schema-2.1.0"));
        let runs = doc.get("runs").and_then(Json::as_array).expect("runs");
        assert_eq!(runs.len(), 1);
        let driver = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .expect("driver");
        assert_eq!(driver.get("name").and_then(Json::as_str), Some("gve-audit"));
        let rules = driver.get("rules").and_then(Json::as_array).expect("rules");
        assert_eq!(rules.len(), RULE_IDS.len(), "catalog covers every rule");
        let results = runs[0]
            .get("results")
            .and_then(Json::as_array)
            .expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").and_then(Json::as_str),
            Some("lock-order")
        );
        assert_eq!(
            results[0].get("level").and_then(Json::as_str),
            Some("error")
        );
        assert_eq!(
            results[1].get("level").and_then(Json::as_str),
            Some("warning")
        );
        let loc = results[0]
            .get("locations")
            .and_then(Json::as_array)
            .and_then(|a| a.first())
            .and_then(|l| l.get("physicalLocation"))
            .expect("location");
        assert_eq!(
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str),
            Some("crates/x/src/lib.rs")
        );
        assert_eq!(
            loc.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_u64),
            Some(7)
        );
    }

    #[test]
    fn every_rule_id_has_a_description() {
        for id in RULE_IDS {
            assert_ne!(rule_description(id), "gve-audit finding", "{id}");
        }
    }
}
