//! Integration tests for the v2 engine surface: stale-suppression
//! accounting (and `--strict-suppressions`), SARIF output, and the
//! stdout/stderr contract of the CLI.

use gve_audit::{audit_workspace_with, AuditOptions, Policy, Severity};
use gve_obs::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mk scratch");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("toml");
    for (rel, content) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdirs");
        std::fs::write(path, content).expect("write file");
    }
    dir
}

const CLEAN_A: &str = "pub fn add(a: u32, b: u32) -> u32 {\n    a.wrapping_add(b)\n}\n";

#[test]
fn unused_suppression_is_stale_and_used_one_is_not() {
    let root = scratch_workspace(
        "gve-audit-stale",
        &[(
            "crates/x/src/hot.rs",
            "// audit:allow(hotpath-panic): covered below\n\
             pub fn f(v: &[u32]) -> u32 {\n\
                 *v.first().unwrap()\n\
             }\n\
             // audit:allow(rayon-blocking): silences nothing\n\
             pub fn g() {}\n",
        )],
    );
    let policy = Policy::parse("hotpath crates/x/src/hot.rs\n").expect("policy");
    let report = audit_workspace_with(&root, &policy, &AuditOptions::default()).expect("workspace");
    // The hotpath-panic marker sits on the line above the fn, not the
    // unwrap, so it silences nothing either — move it where it counts.
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|v| v.rule == "stale-suppression")
        .collect();
    assert!(
        stale
            .iter()
            .any(|v| v.line == 5 && v.message.contains("rayon-blocking")),
        "{report:#?}"
    );
    assert!(stale.iter().all(|v| v.severity == Severity::Warning));

    // Now a marker directly above the offending line: used, not stale.
    std::fs::write(
        root.join("crates/x/src/hot.rs"),
        "pub fn f(v: &[u32]) -> u32 {\n\
             // audit:allow(hotpath-panic): fixture exercises the ledger\n\
             *v.first().unwrap()\n\
         }\n",
    )
    .expect("rewrite");
    let report = audit_workspace_with(&root, &policy, &AuditOptions::default()).expect("workspace");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn unused_policy_entries_are_reported_against_the_policy_file() {
    let root = scratch_workspace("gve-audit-policy-stale", &[("crates/x/src/a.rs", CLEAN_A)]);
    let policy = Policy::parse(
        "relaxed-ok crates/x/src/a.rs -- nothing relaxed there\nskip crates/nonexistent/\n",
    )
    .expect("policy");
    let report = audit_workspace_with(&root, &policy, &AuditOptions::default()).expect("workspace");
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|v| v.rule == "stale-suppression" && v.path == "audit.policy")
        .collect();
    assert_eq!(stale.len(), 2, "{report:#?}");
    assert!(stale
        .iter()
        .any(|v| v.line == 1 && v.message.contains("relaxed-ok")));
    assert!(stale
        .iter()
        .any(|v| v.line == 2 && v.message.contains("skip")));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn strict_suppressions_flag_gates_the_exit_code() {
    let root = scratch_workspace(
        "gve-audit-strict",
        &[(
            "crates/x/src/a.rs",
            "// audit:allow(unsafe-safety): silences nothing\npub fn f() {}\n",
        )],
    );
    let lax = Command::new(env!("CARGO_BIN_EXE_gve-audit"))
        .args(["--root"])
        .arg(&root)
        .output()
        .expect("run");
    assert_eq!(
        lax.status.code(),
        Some(0),
        "warnings alone must not gate: {}",
        String::from_utf8_lossy(&lax.stdout)
    );
    assert!(String::from_utf8_lossy(&lax.stdout).contains("stale-suppression"));

    let strict = Command::new(env!("CARGO_BIN_EXE_gve-audit"))
        .args(["--strict-suppressions", "--root"])
        .arg(&root)
        .output()
        .expect("run");
    assert_eq!(strict.status.code(), Some(1));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sarif_output_has_the_2_1_0_shape_end_to_end() {
    let root = scratch_workspace(
        "gve-audit-sarif",
        &[(
            "crates/x/src/lib.rs",
            "pub fn f(p: *mut u8) {\n    unsafe { *p = 1 };\n}\n",
        )],
    );
    let sarif_path = root.join("audit.sarif");
    let out = Command::new(env!("CARGO_BIN_EXE_gve-audit"))
        .args(["--sarif"])
        .arg(&sarif_path)
        .args(["--root"])
        .arg(&root)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1), "unsafe without SAFETY gates");
    let doc = json::parse(&std::fs::read_to_string(&sarif_path).expect("sarif written"))
        .expect("sarif parses");
    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    let runs = doc.get("runs").and_then(Json::as_array).expect("runs");
    let results = runs[0]
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    // The default policy's skip/relaxed-ok entries match nothing in the
    // scratch tree, so stale-suppression warnings ride along — find the
    // seeded error among them.
    let unsafe_hit = results
        .iter()
        .find(|r| r.get("ruleId").and_then(Json::as_str) == Some("unsafe-safety"))
        .expect("unsafe-safety result present");
    assert_eq!(
        unsafe_hit.get("level").and_then(Json::as_str),
        Some("error")
    );
    assert_eq!(
        unsafe_hit
            .get("locations")
            .and_then(Json::as_array)
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .and_then(|p| p.get("artifactLocation"))
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str),
        Some("crates/x/src/lib.rs")
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn json_stdout_is_pure_json_with_diagnostics_on_stderr() {
    let root = scratch_workspace(
        "gve-audit-stdout",
        &[(
            "crates/x/src/lib.rs",
            "pub fn f(p: *mut u8) {\n    unsafe { *p = 1 };\n}\n",
        )],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_gve-audit"))
        .args(["--json", "--root"])
        .arg(&root)
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The whole of stdout must parse as one JSON document — `| jq`
    // never sees progress chatter.
    let doc = json::parse(&stdout).unwrap_or_else(|e| panic!("stdout not JSON ({e}):\n{stdout}"));
    let arr = doc.as_array().expect("array");
    assert!(arr
        .iter()
        .any(|v| v.get("rule").and_then(Json::as_str) == Some("unsafe-safety")));
    assert!(arr
        .iter()
        .all(|v| v.get("severity").and_then(Json::as_str).is_some()));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error("),
        "diagnostics land on stderr: {stderr}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn live_workspace_is_clean_even_under_strict_suppressions() {
    let root = gve_audit::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let policy = Policy::default_workspace();
    let opts = AuditOptions {
        strict_suppressions: true,
    };
    let report = audit_workspace_with(&root, &policy, &opts).expect("workspace");
    assert!(
        report.findings.is_empty(),
        "live tree carries stale suppressions or findings:\n{}",
        report
            .findings
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 20, "sanity: walked the real tree");
}
