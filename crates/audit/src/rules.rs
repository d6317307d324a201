//! The lint rules and the per-file audit driver.
//!
//! Seven rule families, each enforcing an invariant the concurrency
//! design of GVE-Leiden depends on but the compiler cannot check:
//!
//! | rule id                 | invariant |
//! |-------------------------|-----------|
//! | `unsafe-safety`         | every `unsafe` block/fn/impl carries a `SAFETY:` comment (or `# Safety` doc section) |
//! | `atomic-ordering`       | `Ordering::Relaxed` needs an inline justification mentioning "relaxed" within 8 lines, or a policy allowlist entry; publish sites must use their policy-mandated orderings |
//! | `hotpath-panic`         | no `unwrap`/`expect`/`panic!`/`assert!`/`todo!`/`unimplemented!`/`unreachable!`/`get_unchecked` in designated hot paths (`debug_assert!` allowed) |
//! | `rayon-blocking`        | no `std::thread::spawn`/`thread::sleep`/blocking I/O inside rayon parallel regions |
//! | `lock-order`            | nested lock acquisitions follow the policy's declared `lock-order` hierarchy; no cycles in the observed acquisition graph (see `crate::scopes`, [`crate::lockgraph`]) |
//! | `hotpath-alloc`         | no allocating constructs in policy-pinned allocation-free files/functions |
//! | `guard-across-blocking` | no lock guard held across `recv`/`join`/`sleep`/`accept` or policy-declared blocking calls |
//!
//! Test code (brace-matched `#[cfg(test)]` / `#[test]` regions — see
//! `crate::view`) is exempt from everything but `unsafe-safety`:
//! undocumented aliasing in tests is how soundness bugs hide.
//!
//! A finding can be suppressed in place with a comment containing
//! `audit:allow(<rule-id>)` on the offending line or the line above —
//! grep-able, reviewable, and self-expiring when the code moves: the
//! `stale-suppression` check warns on markers that silence nothing.

use crate::lexer::TokKind;
use crate::lockgraph::{self, LockEdge};
use crate::policy::Policy;
use crate::scopes;
use crate::view::FileView;
use std::fmt;

/// Every rule id the engine can emit, for `audit:allow` markers and the
/// SARIF rule table.
pub const RULE_IDS: [&str; 8] = [
    "unsafe-safety",
    "atomic-ordering",
    "hotpath-panic",
    "rayon-blocking",
    "lock-order",
    "hotpath-alloc",
    "guard-across-blocking",
    "stale-suppression",
];

/// Interns a rule name back to its `'static` id (`audit:allow` parsing).
pub fn canonical_rule_id(name: &str) -> Option<&'static str> {
    RULE_IDS.iter().find(|r| **r == name).copied()
}

/// How bad a finding is: errors gate CI (exit 1), warnings are
/// advisory (exit 0 unless promoted, e.g. `--strict-suppressions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; does not fail the audit by itself.
    Warning,
    /// Gates the merge.
    Error,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`unsafe-safety`, `atomic-ordering`, ...).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Error (gates CI) or Warning (advisory).
    pub severity: Severity,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Builds a [`Violation`] without a [`FileView`] at hand.
pub(crate) fn violation_at(
    path: &str,
    rule: &'static str,
    line: u32,
    severity: Severity,
    message: String,
) -> Violation {
    Violation {
        rule,
        path: path.to_string(),
        line,
        message,
        severity,
    }
}

/// Entry points whose call chains count as parallel regions: rayon's,
/// and the `gve_prim::parfor` loops built on its `broadcast`.
const RAYON_ENTRIES: [&str; 17] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_sort",
    "par_sort_unstable",
    "par_sort_unstable_by_key",
    "par_sort_by_key",
    "par_bridge",
    "broadcast",
    "dynamic_workers",
    "par_for_dynamic",
    "par_for_dynamic_sum",
    "static_blocks",
    "static_for",
    "static_for_mut",
];

/// Everything one file contributes to the workspace audit: its local
/// findings, its lock-acquisition edges (graph analysis is global), and
/// its suppression ledger (stale-suppression accounting is global too).
#[derive(Debug, Clone)]
pub struct FileAudit {
    /// Findings local to this file (all rules except `lock-order` and
    /// `stale-suppression`, which need the whole workspace).
    pub findings: Vec<Violation>,
    /// Observed nested-acquisition edges.
    pub edges: Vec<LockEdge>,
    /// `(comment line, rule)` of every `audit:allow` marker.
    pub markers: Vec<(u32, String)>,
    /// Markers that silenced at least one finding.
    pub used_markers: Vec<(u32, String)>,
    /// Path pattern of the `relaxed-ok` entry this file exercised.
    pub relaxed_entry_used: Option<String>,
}

/// Runs every per-file rule against one file. `path` must be
/// workspace-relative with `/` separators (it is matched against the
/// policy tables).
pub fn audit_file(path: &str, source: &str, policy: &Policy) -> FileAudit {
    let view = FileView::new(path, source);
    let mut out = Vec::new();
    rule_unsafe_safety(&view, &mut out);
    rule_atomic_ordering(&view, policy, &mut out);
    rule_publish_sites(&view, policy, &mut out);
    if policy.is_hot_path(path) {
        rule_hotpath_panic(&view, &mut out);
    }
    rule_rayon_blocking(&view, &mut out);
    let scoped = scopes::analyze(&view, policy);
    out.extend(scoped.findings);
    out.sort_by_key(|v| (v.line, v.rule));
    let relaxed_entry_used = policy.relaxed_ok_for(path).and_then(|entry| {
        let exercised = view.code.iter().enumerate().any(|(i, t)| {
            t.is_ident("Relaxed")
                && i >= 3
                && view.code[i - 1].is_punct(":")
                && view.code[i - 2].is_punct(":")
                && view.code[i - 3].is_ident("Ordering")
                && !view.in_tests(t.line)
        });
        exercised.then(|| entry.path.clone())
    });
    FileAudit {
        findings: out,
        edges: scoped.edges,
        markers: view.markers(),
        used_markers: view.used_markers(),
        relaxed_entry_used,
    }
}

/// Single-file entry point: per-file rules plus a lock-graph analysis
/// of just this file's edges. The workspace driver uses [`audit_file`]
/// instead and runs the graph globally.
pub fn audit_source(path: &str, source: &str, policy: &Policy) -> Vec<Violation> {
    let fa = audit_file(path, source, policy);
    let mut out = fa.findings;
    out.extend(lockgraph::analyze(&fa.edges, policy));
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

fn violation(view: &FileView<'_>, rule: &'static str, line: u32, message: String) -> Violation {
    violation_at(view.path, rule, line, Severity::Error, message)
}

// ---- unsafe-safety --------------------------------------------------

fn rule_unsafe_safety(view: &FileView<'_>, out: &mut Vec<Violation>) {
    const RULE: &str = "unsafe-safety";
    for (i, t) in view.code.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let next = view.code.get(i + 1);
        let what = match next {
            Some(n) if n.is_ident("fn") => "unsafe fn",
            Some(n) if n.is_ident("impl") => "unsafe impl",
            Some(n) if n.is_ident("trait") => "unsafe trait",
            // `unsafe` inside `fn` signatures of trait items, extern
            // blocks, etc. all still want justification; treat the rest
            // as blocks.
            _ => "unsafe block",
        };
        if view.suppressed(t.line, RULE) {
            continue;
        }
        let has_safety = |text: &str| {
            let lower = text.to_ascii_lowercase();
            lower.contains("safety:") || lower.contains("# safety")
        };
        // Same-line trailing comment, the immediately-preceding comment
        // block (blocks above may include attributes/doc sections), or
        // — for items — the doc block.
        let justified = view.comment_near(t.line, 0, |c| has_safety(c))
            || has_safety(&view.block_above(t.line));
        if !justified {
            out.push(violation(
                view,
                RULE,
                t.line,
                format!("{what} without a `SAFETY:` comment (or `# Safety` doc section)"),
            ));
        }
    }
}

// ---- atomic-ordering ------------------------------------------------

fn rule_atomic_ordering(view: &FileView<'_>, policy: &Policy, out: &mut Vec<Violation>) {
    const RULE: &str = "atomic-ordering";
    if policy.relaxed_ok_for(view.path).is_some() {
        return;
    }
    for (i, t) in view.code.iter().enumerate() {
        if !t.is_ident("Relaxed") || i < 3 {
            continue;
        }
        let is_ordering_path = view.code[i - 1].is_punct(":")
            && view.code[i - 2].is_punct(":")
            && view.code[i - 3].is_ident("Ordering");
        if !is_ordering_path || view.in_tests(t.line) || view.suppressed(t.line, RULE) {
            continue;
        }
        let justified =
            view.comment_near(t.line, 8, |c| c.to_ascii_lowercase().contains("relaxed"));
        if !justified {
            out.push(violation(
                view,
                RULE,
                t.line,
                "Ordering::Relaxed without a justification comment mentioning \"relaxed\" \
                 within 8 lines (or a relaxed-ok policy entry)"
                    .to_string(),
            ));
        }
    }
}

// ---- publish sites (ordering policy table) --------------------------

fn rule_publish_sites(view: &FileView<'_>, policy: &Policy, out: &mut Vec<Violation>) {
    const RULE: &str = "atomic-ordering";
    for rule in policy.publish_rules_for(view.path) {
        for (i, t) in view.code.iter().enumerate() {
            let is_site = t.kind == TokKind::Ident
                && t.text.contains(rule.field.as_str())
                && matches!(view.code.get(i + 1), Some(n) if n.is_punct("."))
                && matches!(view.code.get(i + 2), Some(n) if n.is_ident(&rule.method))
                && matches!(view.code.get(i + 3), Some(n) if n.is_punct("("));
            if !is_site || view.in_tests(t.line) || view.suppressed(t.line, RULE) {
                continue;
            }
            // Collect every `Ordering::X` inside the call parens.
            let close = match matching_paren(&view.code, i + 3) {
                Some(c) => c,
                None => continue,
            };
            let mut seen = Vec::new();
            for j in i + 4..close {
                if view.code[j].is_ident("Ordering")
                    && matches!(view.code.get(j + 1), Some(n) if n.is_punct(":"))
                    && matches!(view.code.get(j + 2), Some(n) if n.is_punct(":"))
                {
                    if let Some(ord) = view.code.get(j + 3) {
                        seen.push(ord.text.clone());
                    }
                }
            }
            if seen.is_empty() {
                out.push(violation(
                    view,
                    RULE,
                    t.line,
                    format!(
                        "publish site `{}.{}` uses a non-literal ordering; the policy \
                         requires one of [{}] ({})",
                        rule.field,
                        rule.method,
                        rule.allowed.join(", "),
                        rule.reason
                    ),
                ));
                continue;
            }
            for ord in seen {
                if !rule.allowed.iter().any(|a| a == &ord) {
                    out.push(violation(
                        view,
                        RULE,
                        t.line,
                        format!(
                            "publish site `{}.{}` uses Ordering::{ord}; the policy requires \
                             one of [{}] ({})",
                            rule.field,
                            rule.method,
                            rule.allowed.join(", "),
                            rule.reason
                        ),
                    ));
                }
            }
        }
    }
}

// ---- hotpath-panic --------------------------------------------------

fn rule_hotpath_panic(view: &FileView<'_>, out: &mut Vec<Violation>) {
    const RULE: &str = "hotpath-panic";
    const PANIC_MACROS: [&str; 7] = [
        "panic",
        "todo",
        "unimplemented",
        "unreachable",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    for (i, t) in view.code.iter().enumerate() {
        if t.kind != TokKind::Ident || view.in_tests(t.line) {
            continue;
        }
        let next_is = |s: &str| matches!(view.code.get(i + 1), Some(n) if n.is_punct(s));
        let offence = match t.text.as_str() {
            "unwrap" | "expect" if next_is("(") => Some(format!(
                "`.{}()` in a hot path — return an Option/Result or restructure",
                t.text
            )),
            "get_unchecked" | "get_unchecked_mut" => Some(format!(
                "`{}` in a hot path — bounds-checked indexing only",
                t.text
            )),
            m if PANIC_MACROS.contains(&m) && next_is("!") => Some(format!(
                "`{m}!` in a hot path — use `debug_assert!` for invariants",
            )),
            _ => None,
        };
        if let Some(message) = offence {
            if !view.suppressed(t.line, RULE) {
                out.push(violation(view, RULE, t.line, message));
            }
        }
    }
}

// ---- rayon-blocking -------------------------------------------------

fn rule_rayon_blocking(view: &FileView<'_>, out: &mut Vec<Violation>) {
    const RULE: &str = "rayon-blocking";
    let mut seen: Vec<(u32, &'static str)> = Vec::new();
    let mut i = 0;
    while i < view.code.len() {
        let t = &view.code[i];
        let is_entry = t.kind == TokKind::Ident
            && RAYON_ENTRIES.contains(&t.text.as_str())
            && matches!(view.code.get(i + 1), Some(n) if n.is_punct("("));
        if !is_entry || view.in_tests(t.line) {
            i += 1;
            continue;
        }
        // The parallel region: this call plus the rest of its method
        // chain (`.for_each(...)`, `.map(...).sum()`, ...), where the
        // worker closures actually live.
        let mut end = match matching_paren(&view.code, i + 1) {
            Some(c) => c,
            None => {
                i += 1;
                continue;
            }
        };
        while matches!(view.code.get(end + 1), Some(n) if n.is_punct("."))
            && matches!(view.code.get(end + 2), Some(n) if n.kind == TokKind::Ident)
            && matches!(view.code.get(end + 3), Some(n) if n.is_punct("("))
        {
            end = match matching_paren(&view.code, end + 3) {
                Some(c) => c,
                None => break,
            };
        }
        for j in i + 1..end {
            let c = &view.code[j];
            if c.kind != TokKind::Ident {
                continue;
            }
            let path_next =
                |k: usize, s: &str| matches!(view.code.get(k), Some(n) if n.is_ident(s));
            let double_colon = |k: usize| {
                matches!(view.code.get(k), Some(n) if n.is_punct(":"))
                    && matches!(view.code.get(k + 1), Some(n) if n.is_punct(":"))
            };
            let found: Option<&'static str> = match c.text.as_str() {
                "thread" if double_colon(j + 1) && path_next(j + 3, "spawn") => {
                    Some("thread::spawn")
                }
                "thread" if double_colon(j + 1) && path_next(j + 3, "sleep") => {
                    Some("thread::sleep")
                }
                "fs" if double_colon(j + 1) => Some("std::fs I/O"),
                "File" | "OpenOptions" if double_colon(j + 1) => Some("file I/O"),
                "TcpStream" | "TcpListener" | "UdpSocket" if double_colon(j + 1) => {
                    Some("network I/O")
                }
                "stdin" | "stdout" if matches!(view.code.get(j + 1), Some(n) if n.is_punct("(")) => {
                    Some("console I/O")
                }
                _ => None,
            };
            if let Some(what) = found {
                if !seen.contains(&(c.line, what)) && !view.suppressed(c.line, RULE) {
                    seen.push((c.line, what));
                    out.push(violation(
                        view,
                        RULE,
                        c.line,
                        format!(
                            "{what} inside a rayon parallel region (entered via `{}` \
                             on line {}) — blocks a pool worker",
                            t.text, t.line
                        ),
                    ));
                }
            }
        }
        i += 1; // nested entries re-scan; findings dedupe via `seen`
    }
}

/// Index of the `)` matching the `(` at `open`. Only parentheses are
/// tracked — brackets and braces inside are irrelevant to balance.
fn matching_paren(code: &[crate::lexer::Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        audit_source(path, src, &Policy::default_workspace())
    }

    #[test]
    fn undocumented_unsafe_block_is_flagged_and_safety_comment_clears_it() {
        let bad = "fn f(p: *mut u8) { unsafe { *p = 1; } }";
        let found = run("crates/x/src/lib.rs", bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "unsafe-safety");
        assert_eq!(found[0].severity, Severity::Error);

        let good = "fn f(p: *mut u8) {\n    // SAFETY: p is valid per caller contract.\n    unsafe { *p = 1; }\n}";
        assert!(run("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn unsafe_fn_accepts_safety_doc_section() {
        let good = "/// Does things.\n///\n/// # Safety\n/// Caller must own `p`.\n#[inline]\npub unsafe fn f(p: *mut u8) { let _ = p; }";
        assert!(run("crates/x/src/lib.rs", good).is_empty());
        let bad = "pub unsafe fn f(p: *mut u8) { let _ = p; }";
        assert_eq!(run("crates/x/src/lib.rs", bad).len(), 1);
    }

    #[test]
    fn unsafe_impl_needs_comment_even_in_tests() {
        let bad =
            "#[cfg(test)]\nmod tests {\n    struct S(*mut u8);\n    unsafe impl Send for S {}\n}";
        let found = run("crates/x/src/lib.rs", bad);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("unsafe impl"));
    }

    #[test]
    fn relaxed_needs_nearby_justification() {
        let bad = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let found = run("crates/x/src/lib.rs", bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "atomic-ordering");

        let good = "use std::sync::atomic::{AtomicU64, Ordering};\n// Relaxed: pure counter, nothing synchronizes on it.\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert!(run("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn relaxed_in_tests_and_in_comments_is_ignored() {
        let src = "// Ordering::Relaxed mentioned in prose.\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicU64, Ordering};\n    #[test]\n    fn t() { AtomicU64::new(0).fetch_add(1, Ordering::Relaxed); }\n}";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_test_module_is_still_audited() {
        // v1's "earliest test attribute onward" heuristic exempted
        // everything below the first #[cfg(test)] — including real code
        // between two test modules (the `prim/smallmap.rs` layout).
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\
                   use std::sync::atomic::{AtomicU64, Ordering};\n\
                   fn prod(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n\
                   #[cfg(test)]\nmod more {\n    fn u() {}\n}";
        let found = run("crates/x/src/lib.rs", src);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].rule, "atomic-ordering");
    }

    #[test]
    fn publish_site_demotion_is_caught() {
        let bad = "use std::sync::atomic::{AtomicBool, Ordering};\n// Relaxed: just a flag. (wrong!)\nfn f(s: &AtomicBool) { s.store(true, Ordering::Relaxed); }\nfn g(stopping: &AtomicBool) { stopping.store(true, Ordering::Relaxed); }";
        let found = run("crates/net/src/server.rs", bad);
        // `s.store` is not a publish site; `stopping.store` is.
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("Release"));

        let good = "use std::sync::atomic::{AtomicBool, Ordering};\nfn g(stopping: &AtomicBool) { stopping.store(true, Ordering::Release); }";
        assert!(run("crates/net/src/server.rs", good).is_empty());
    }

    #[test]
    fn hotpath_bans_panics_but_not_debug_assert_or_unwrap_or() {
        let bad = "fn f(v: &[u32]) -> u32 { v.first().unwrap().wrapping_add(1) }\nfn g() { panic!(\"no\"); }\nfn h(v: &[u32]) { assert!(v.len() > 1); }";
        let found = run("crates/core/src/localmove.rs", bad);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|v| v.rule == "hotpath-panic"));

        let good = "fn f(v: &[u32]) -> u32 { v.first().copied().unwrap_or(0) }\nfn h(v: &[u32]) { debug_assert!(v.len() > 1); }";
        assert!(run("crates/core/src/localmove.rs", good).is_empty());
        // Same code outside a hot path is fine.
        assert!(run("crates/core/src/config.rs", bad)
            .iter()
            .all(|v| v.rule != "hotpath-panic"));
    }

    #[test]
    fn hotpath_bans_get_unchecked() {
        let bad = "fn f(v: &[u32]) -> u32 {\n    // SAFETY: in bounds.\n    unsafe { *v.get_unchecked(0) }\n}";
        let found = run("crates/core/src/kernel.rs", bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("get_unchecked"));
    }

    #[test]
    fn thread_spawn_inside_rayon_region_is_flagged() {
        let bad = "use rayon::prelude::*;\nfn f(v: &[u32]) {\n    v.par_iter().for_each(|_| {\n        std::thread::spawn(|| {});\n    });\n}";
        let found = run("crates/x/src/lib.rs", bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "rayon-blocking");
        assert!(found[0].message.contains("thread::spawn"));
    }

    #[test]
    fn io_inside_dynamic_workers_is_flagged_but_outside_is_fine() {
        let bad = "fn f() {\n    dynamic_workers(10, 2, |claims| {\n        let _ = std::fs::read(\"x\");\n        claims.count()\n    });\n}";
        let found = run("crates/x/src/lib.rs", bad);
        assert_eq!(found.len(), 1, "{found:?}");

        let good = "fn f() {\n    let _ = std::fs::read(\"x\");\n    dynamic_workers(10, 2, |claims| claims.count());\n}";
        assert!(run("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn sleep_inside_static_loops_is_flagged() {
        let bad = "fn f(v: &mut [u32]) {\n    static_for_mut(v, |_, x| {\n        std::thread::sleep(D);\n        *x = 0;\n    });\n    static_blocks(4, |_, _| std::thread::sleep(D));\n}";
        let found = run("crates/x/src/lib.rs", bad);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|v| v.message.contains("thread::sleep")));
    }

    #[test]
    fn suppression_marker_silences_a_finding() {
        let src = "fn f(v: &[u32]) -> u32 {\n    // audit:allow(hotpath-panic): len checked by caller.\n    v.first().unwrap().wrapping_add(1)\n}";
        assert!(run("crates/core/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn findings_carry_path_line_and_sort_by_line() {
        let bad = "fn g() { panic!(\"a\"); }\nfn f(p: *mut u8) { unsafe { *p = 1; } }";
        let found = run("crates/core/src/refine.rs", bad);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].line, 1);
        assert_eq!(found[1].line, 2);
        assert_eq!(found[0].path, "crates/core/src/refine.rs");
        assert!(found[1].to_string().contains("refine.rs:2"));
    }

    #[test]
    fn audit_file_reports_the_suppression_ledger() {
        let src = "fn f(v: &[u32]) -> u32 {\n    // audit:allow(hotpath-panic): len checked by caller.\n    v.first().unwrap().wrapping_add(1)\n}\n// audit:allow(unsafe-safety): nothing unsafe here, stale.\nfn g() {}\n";
        let fa = audit_file(
            "crates/core/src/kernel.rs",
            src,
            &Policy::default_workspace(),
        );
        assert!(fa.findings.is_empty(), "{:?}", fa.findings);
        assert_eq!(fa.markers.len(), 2);
        assert_eq!(fa.used_markers, vec![(2, "hotpath-panic".to_string())]);
    }

    #[test]
    fn audit_file_tracks_relaxed_ok_entry_usage() {
        let p = Policy::parse("relaxed-ok crates/gen/ -- generated code\n").unwrap();
        let used = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let fa = audit_file("crates/gen/src/lib.rs", used, &p);
        assert_eq!(fa.relaxed_entry_used.as_deref(), Some("crates/gen/"));
        let unused = "fn f() {}";
        let fa = audit_file("crates/gen/src/lib.rs", unused, &p);
        assert_eq!(fa.relaxed_entry_used, None);
    }
}
