//! `gve-audit` CLI: lint the workspace, exit non-zero on findings.
//!
//! ```text
//! cargo run -p gve-audit                 # audit the enclosing workspace
//! gve-audit --root /path/to/repo         # audit an explicit checkout
//! gve-audit --policy custom.policy       # override the policy file
//! gve-audit --json                       # machine-readable findings on stdout
//! gve-audit --sarif out.sarif            # SARIF 2.1.0 for code scanning
//! gve-audit --strict-suppressions        # stale suppressions become errors
//! ```
//!
//! Findings (text or `--json`) are the only thing written to stdout —
//! all diagnostics go to stderr, so `gve-audit --json | jq .` always
//! parses. `--json` renders one finding object per line through
//! `gve_obs::json`.

use gve_audit::{audit_workspace_with, find_workspace_root, sarif, AuditOptions, Policy, Severity};
use gve_obs::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    policy: Option<PathBuf>,
    json: bool,
    sarif: Option<PathBuf>,
    strict_suppressions: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        policy: None,
        json: false,
        sarif: None,
        strict_suppressions: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root needs a path".to_string())?,
                ));
            }
            "--policy" => {
                args.policy = Some(PathBuf::from(
                    it.next().ok_or("--policy needs a path".to_string())?,
                ));
            }
            "--json" => args.json = true,
            "--sarif" => {
                args.sarif = Some(PathBuf::from(
                    it.next().ok_or("--sarif needs a path".to_string())?,
                ));
            }
            "--strict-suppressions" => args.strict_suppressions = true,
            "--help" | "-h" => {
                println!(
                    "gve-audit: workspace concurrency/soundness lints\n\n\
                     USAGE: gve-audit [--root DIR] [--policy FILE] [--json]\n\
                            [--sarif FILE] [--strict-suppressions]\n\n\
                     Exit status: 0 clean (warnings allowed), 1 errors, 2 tool error."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = match args.root {
        Some(r) => r,
        None => {
            let start = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&start)
                .or_else(|| {
                    // Fall back to the source checkout this binary was
                    // built from (covers `cargo run` from odd cwds).
                    find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
                })
                .ok_or("cannot locate workspace root (use --root)".to_string())?
        }
    };
    let policy_file = match &args.policy {
        Some(p) => Some(p.clone()),
        None => {
            let default_file = root.join("audit.policy");
            default_file.is_file().then_some(default_file)
        }
    };
    let policy = match &policy_file {
        Some(p) => Policy::load(p)?,
        None => Policy::default_workspace(),
    };
    let opts = AuditOptions {
        strict_suppressions: args.strict_suppressions,
    };
    let report = audit_workspace_with(&root, &policy, &opts)?;
    let findings = &report.findings;
    if let Some(path) = &args.sarif {
        std::fs::write(path, sarif::to_sarif(findings))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("gve-audit: wrote SARIF to {}", path.display());
    }
    if args.json {
        println!("[");
        for (i, v) in findings.iter().enumerate() {
            let comma = if i + 1 == findings.len() { "" } else { "," };
            let sev = match v.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            let finding = Json::obj([
                ("rule", Json::from(v.rule)),
                ("path", Json::from(v.path.as_str())),
                ("line", Json::from(v.line)),
                ("severity", Json::from(sev)),
                ("message", Json::from(v.message.as_str())),
            ]);
            println!("  {finding}{comma}");
        }
        println!("]");
    } else {
        for v in findings {
            println!("{v}");
        }
    }
    let errors = findings
        .iter()
        .filter(|v| v.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;
    if findings.is_empty() {
        eprintln!("gve-audit: workspace clean ({})", root.display());
    } else {
        eprintln!("gve-audit: {errors} error(s), {warnings} warning(s)");
    }
    Ok(errors == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gve-audit: error: {e}");
            ExitCode::from(2)
        }
    }
}
