//! End-to-end tests for the audit engine and the `gve-audit` binary:
//! the seeded fixture must trip every rule, the clean fixture none, the
//! CLI must exit 1 on a violation-bearing workspace and 0 on the real
//! one.

use gve_audit::{audit_source, audit_workspace, find_workspace_root, Policy};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A policy that treats the fixture path as hot, `shutdown` as a
/// publish, and declares the fixture's two-lock hierarchy plus one
/// allocation-free function — mirroring the workspace defaults.
fn fixture_policy() -> Policy {
    Policy::parse(
        "hotpath fixture_hot.rs\n\
         publish fixture shutdown.store Release,SeqCst -- fixture publish flag\n\
         lock-order gate before inner -- fixture hierarchy\n\
         hotpath-alloc fixture_hot.rs fn=hot_alloc_site\n",
    )
    .expect("fixture policy parses")
}

#[test]
fn seeded_fixture_trips_every_rule() {
    let found = audit_source(
        "crates/x/src/fixture_hot.rs",
        &fixture("violations.rs"),
        &fixture_policy(),
    );
    let rules: Vec<&str> = found.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"unsafe-safety"), "{found:#?}");
    assert!(rules.contains(&"atomic-ordering"), "{found:#?}");
    assert!(rules.contains(&"hotpath-panic"), "{found:#?}");
    assert!(rules.contains(&"rayon-blocking"), "{found:#?}");
    assert!(rules.contains(&"lock-order"), "{found:#?}");
    assert!(rules.contains(&"hotpath-alloc"), "{found:#?}");
    assert!(rules.contains(&"guard-across-blocking"), "{found:#?}");
    // Two undocumented unsafes, one naked Relaxed, one demoted publish,
    // three hot-path panics, spawn + fs inside the region, one order
    // inversion, one deadlock cycle, one guard-across-recv, one alloc.
    assert!(found.len() >= 13, "expected >= 13 findings, got {found:#?}");
}

#[test]
fn seeded_fixture_reports_the_inversion_and_the_cycle() {
    let found = audit_source(
        "crates/x/src/fixture_hot.rs",
        &fixture("violations.rs"),
        &fixture_policy(),
    );
    // `inverted_order` nests inner → gate against the declared
    // `lock-order gate before inner`.
    assert!(
        found
            .iter()
            .any(|v| v.rule == "lock-order" && v.message.contains("inversion")),
        "{found:#?}"
    );
    // Together with `ordered_nesting` (gate → inner) that closes a
    // cycle, reported once with both sites.
    let cycle = found
        .iter()
        .find(|v| v.message.contains("potential deadlock"))
        .unwrap_or_else(|| panic!("no cycle finding in {found:#?}"));
    assert!(cycle.message.contains("gate → inner → gate"), "{cycle:#?}");
}

#[test]
fn clean_fixture_audits_clean_even_as_hot_path() {
    let found = audit_source(
        "crates/x/src/fixture_hot.rs",
        &fixture("clean.rs"),
        &fixture_policy(),
    );
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn live_workspace_audits_clean_with_default_policy() {
    let root = workspace_root();
    let policy = Policy::default_workspace();
    let found = audit_workspace(&root, &policy).expect("workspace scan");
    assert!(
        found.is_empty(),
        "workspace has audit findings:\n{}",
        found
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn cli_exits_nonzero_on_seeded_workspace_and_zero_on_real_one() {
    // Build a throwaway "workspace" containing only the violation
    // fixture, then point the binary at it.
    let bad_root = scratch_dir("gve-audit-bad");
    std::fs::create_dir_all(bad_root.join("crates/bad/src")).expect("mk scratch");
    std::fs::write(bad_root.join("Cargo.toml"), "[workspace]\n").expect("toml");
    std::fs::write(
        bad_root.join("crates/bad/src/lib.rs"),
        fixture("violations.rs"),
    )
    .expect("fixture copy");

    let bad = Command::new(env!("CARGO_BIN_EXE_gve-audit"))
        .args(["--root"])
        .arg(&bad_root)
        .output()
        .expect("run gve-audit");
    assert_eq!(
        bad.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&bad.stdout),
        String::from_utf8_lossy(&bad.stderr)
    );
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("unsafe-safety"), "{stdout}");

    let good = Command::new(env!("CARGO_BIN_EXE_gve-audit"))
        .args(["--root"])
        .arg(workspace_root())
        .output()
        .expect("run gve-audit");
    assert_eq!(
        good.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&good.stdout),
        String::from_utf8_lossy(&good.stderr)
    );

    std::fs::remove_dir_all(&bad_root).ok();
}

#[test]
fn cli_json_output_is_parseable_shape() {
    let bad_root = scratch_dir("gve-audit-json");
    std::fs::create_dir_all(bad_root.join("crates/bad/src")).expect("mk scratch");
    std::fs::write(bad_root.join("Cargo.toml"), "[workspace]\n").expect("toml");
    std::fs::write(
        bad_root.join("crates/bad/src/lib.rs"),
        fixture("violations.rs"),
    )
    .expect("fixture copy");

    let out = Command::new(env!("CARGO_BIN_EXE_gve-audit"))
        .args(["--json", "--root"])
        .arg(&bad_root)
        .output()
        .expect("run gve-audit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.trim_end().ends_with(']'), "{stdout}");
    assert!(stdout.contains("\"rule\":\"unsafe-safety\""), "{stdout}");

    std::fs::remove_dir_all(&bad_root).ok();
}

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
