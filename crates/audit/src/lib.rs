//! gve-audit: the workspace lint engine.
//!
//! GVE-Leiden's asynchronous local-moving phase races threads on shared
//! atomics *by design*, and `crates/prim` hands out `&self` writes
//! through [`SharedSlice`]-style unsafe aliasing. The compiler cannot
//! check the conventions that keep that sound — so this crate makes
//! them executable. `cargo run -p gve-audit` walks every Rust source in
//! the workspace, tokenizes it (a minimal hand-rolled lexer — the
//! offline workspace has no `syn`; token-level views of comments vs.
//! code are exactly what the rules need), and enforces the rule
//! families documented in [`rules`], driven by the policy table in
//! [`policy`]. v2 adds a scope-aware pass ([`scopes`]): lexical lock
//! guard tracking feeding a workspace-wide acquisition graph
//! ([`lockgraph`]), a hot-path allocation lint, and a
//! guard-across-blocking check.
//!
//! Exit status is the contract: `0` means no error-severity findings,
//! `1` means errors were printed, `2` means the tool itself failed
//! (unreadable policy, I/O error). CI gates merges on it and uploads
//! the `--sarif` rendering ([`sarif`]) to code scanning. Both SARIF and
//! `--json` are built as `gve_obs::json` values.
//!
//! [`SharedSlice`]: ../gve_prim/shared_slice/struct.SharedSlice.html

pub mod lexer;
pub mod lockgraph;
pub mod policy;
pub mod rules;
pub mod sarif;
mod scopes;
mod view;

pub use policy::Policy;
pub use rules::{audit_file, audit_source, canonical_rule_id, FileAudit, Severity, Violation};

use rules::violation_at;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned for `.rs`
/// files. `shims/` is reachable here but excluded by the default
/// policy's `skip` entries, keeping the decision in the reviewable
/// policy file rather than hard-coded.
const SCAN_ROOTS: [&str; 2] = ["crates", "shims"];

/// Knobs for [`audit_workspace_with`].
#[derive(Debug, Clone, Default)]
pub struct AuditOptions {
    /// Promote `stale-suppression` findings from warnings to errors.
    pub strict_suppressions: bool,
}

/// What a workspace audit produced.
#[derive(Debug)]
pub struct AuditReport {
    /// All findings, sorted by `(path, line, rule, message)`.
    pub findings: Vec<Violation>,
    /// Files actually audited (after `skip` filtering).
    pub files_scanned: usize,
}

/// Audits every non-skipped `.rs` file under `root`. Returns findings
/// sorted by path then line; I/O problems are reported as `Err`.
///
/// Thin wrapper over [`audit_workspace_with`] with default options
/// (suppression staleness as warnings).
pub fn audit_workspace(root: &Path, policy: &Policy) -> Result<Vec<Violation>, String> {
    audit_workspace_with(root, policy, &AuditOptions::default()).map(|r| r.findings)
}

/// The full workspace driver: per-file rules, then the global analyses — the lock-order
/// acquisition graph over the union of every file's edges, and
/// stale-suppression accounting over the union of every file's
/// `audit:allow` ledger plus the policy's own `relaxed-ok`/`skip`
/// entries.
pub fn audit_workspace_with(
    root: &Path,
    policy: &Policy,
    opts: &AuditOptions,
) -> Result<AuditReport, String> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        let top = root.join(dir);
        if top.is_dir() {
            collect_rs_files(&top, &mut files)?;
        }
    }
    let mut audits: Vec<(String, FileAudit)> = Vec::new();
    // Policy `skip` entries that matched at least one walked file.
    let mut used_skip_lines: Vec<usize> = Vec::new();
    for file in files {
        let rel = relative_slash_path(root, &file);
        if let Some(entry) = policy.skip_entry_for(&rel) {
            if !used_skip_lines.contains(&entry.line) {
                used_skip_lines.push(entry.line);
            }
            continue;
        }
        let source = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let audit = audit_file(&rel, &source, policy);
        audits.push((rel, audit));
    }

    let mut findings: Vec<Violation> = Vec::new();
    let mut edges = Vec::new();
    for (_, a) in &audits {
        findings.extend(a.findings.iter().cloned());
        edges.extend(a.edges.iter().cloned());
    }
    findings.extend(lockgraph::analyze(&edges, policy));

    // Stale-suppression accounting. A marker is stale when it silenced
    // nothing; a `relaxed-ok` entry when no matched file has a non-test
    // `Ordering::Relaxed`; a `skip` entry when it matched no walked
    // file. `--strict-suppressions` promotes these to errors.
    let stale_sev = if opts.strict_suppressions {
        Severity::Error
    } else {
        Severity::Warning
    };
    for (path, a) in &audits {
        for (line, rule) in &a.markers {
            if !a.used_markers.iter().any(|(l, r)| l == line && r == rule) {
                findings.push(violation_at(
                    path,
                    "stale-suppression",
                    *line,
                    stale_sev,
                    format!("audit:allow({rule}) suppresses nothing — delete the marker"),
                ));
            }
        }
    }
    for entry in &policy.relaxed_ok {
        let used = audits
            .iter()
            .any(|(_, a)| a.relaxed_entry_used.as_deref() == Some(entry.path.as_str()));
        if !used {
            findings.push(violation_at(
                "audit.policy",
                "stale-suppression",
                entry.line as u32,
                stale_sev,
                format!(
                    "`relaxed-ok {}` matches no non-test Ordering::Relaxed use — delete the entry",
                    entry.path
                ),
            ));
        }
    }
    for entry in &policy.skip {
        if !used_skip_lines.contains(&entry.line) {
            findings.push(violation_at(
                "audit.policy",
                "stale-suppression",
                entry.line as u32,
                stale_sev,
                format!(
                    "`skip {}` matches no file in the tree — delete the entry",
                    entry.path
                ),
            ));
        }
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });

    Ok(AuditReport {
        findings,
        files_scanned: audits.len(),
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("bad dir entry under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with forward slashes (policy matching is done
/// on these regardless of host OS).
fn relative_slash_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root: walks up from `start` looking for a
/// directory containing both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_are_slash_separated() {
        let root = Path::new("/w");
        let file = Path::new("/w/crates/core/src/lib.rs");
        assert_eq!(relative_slash_path(root, file), "crates/core/src/lib.rs");
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("root");
        assert!(root.join("crates/audit").is_dir());
    }
}
