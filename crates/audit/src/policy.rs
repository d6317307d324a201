//! The audit policy: which files are hot paths, where `Relaxed` is
//! allowed wholesale, which atomics are cross-thread *publishes* that
//! must use Release/Acquire or stronger — and, since v2, the declared
//! lock hierarchy plus the tables that teach the scope-aware rules
//! about this workspace's lock wrappers and long-running calls.
//!
//! The policy ships in `audit.policy` at the workspace root so it is
//! reviewable next to the code it governs; [`Policy::default_workspace`]
//! compiles that file in as a fallback for running the engine against a
//! bare checkout. Format (one entry per line, `#` comments):
//!
//! ```text
//! hotpath       <path-substring>
//! relaxed-ok    <path-substring> -- <reason>
//! publish       <path-substring> <field>.<method> <Ordering>[,<Ordering>] -- <reason>
//! skip          <path-substring>
//! lock-order    <A> before <B> -- <reason>
//! lock-fn       [<recv>.]<callee> <lock> [-- <reason>]
//! lock-wrapper  <callee> [-- <reason>]
//! lock-alias    <path-substring> <derived> <canonical> [-- <reason>]
//! lock-allows-blocking <lock> -- <reason>
//! blocking-call <callee> -- <reason>
//! hotpath-alloc <path-substring> [fn=<name>[,<name>]*]
//! ```
//!
//! * `hotpath` — rule `hotpath-panic` bans `unwrap`/`expect`/`panic!`/
//!   `assert!`/`todo!`/`unimplemented!`/`get_unchecked` in these files
//!   (tests exempt; `debug_assert!` allowed).
//! * `relaxed-ok` — rule `atomic-ordering` accepts *undocumented*
//!   `Ordering::Relaxed` in these files. Prefer inline justification
//!   comments; this escape hatch exists for generated or vendored code.
//! * `publish` — accesses of fields whose name contains `<field>` via
//!   `<method>` must use one of the listed orderings. This is the
//!   machine-checked half of the ordering policy table: values other
//!   threads *synchronize on* (not mere counters) may not be demoted to
//!   `Relaxed` without editing the policy in the same diff.
//! * `skip` — files the engine never scans (stand-in shims, fixtures).
//! * `lock-order` — declares that lock `<A>` may be held while
//!   acquiring `<B>` (and, transitively, anything `<B>` precedes). The
//!   `lock-order` rule reports observed nested acquisitions that invert
//!   a declared order, every undeclared nested acquisition, and any
//!   cycle in the observed acquisition graph.
//! * `lock-fn` — calling `<callee>` (optionally only as a method on a
//!   receiver whose last path segment is `<recv>`) acquires `<lock>`.
//!   This names acquisitions hidden behind constructors like
//!   `begin_update()` or accessors like `cache.get(..)`.
//! * `lock-wrapper` — `<callee>(&some.lock_field)` acquires the lock
//!   named by the last identifier of its first argument. Covers
//!   poison-recovering helpers like `lock_clean` / `lock_table`.
//! * `lock-alias` — within files matching `<path-substring>`, a lock
//!   whose derived name is `<derived>` is really `<canonical>`. Keeps
//!   the graph's vertex names stable when a local variable hides the
//!   field name (`cell.lock()` → the registry `entry` mutex).
//! * `lock-allows-blocking` — `guard-across-blocking` accepts guards of
//!   `<lock>` across blocking calls; for gates *designed* to be held
//!   across long compute (the registry `update_gate`).
//! * `blocking-call` — `<callee>(..)` counts as blocking for the
//!   `guard-across-blocking` rule, in addition to the built-in set
//!   (`recv`, `join`, `sleep`, ...). Names long compute like
//!   `apply_batch`.
//! * `hotpath-alloc` — rule `hotpath-alloc` bans allocating constructs
//!   in these files (tests exempt); with `fn=a,b,c` only the named
//!   functions' bodies are checked (for files whose setup paths may
//!   allocate freely while the steady-state loop may not).

use std::fmt;
use std::path::Path;

/// A `publish` table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishRule {
    /// Path substring selecting the files this entry covers.
    pub path: String,
    /// Field-name substring (`shutdown` matches `shutdown_flag`).
    pub field: String,
    /// Method the rule constrains (`store`, `load`, `fetch_add`, ...).
    pub method: String,
    /// Orderings the access may use.
    pub allowed: Vec<String>,
    /// Why this site is ordering-sensitive.
    pub reason: String,
}

/// An allowlist entry with its justification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Path substring.
    pub path: String,
    /// Why `Relaxed` is blanket-acceptable there.
    pub reason: String,
    /// 1-based policy-file line (stale-suppression reporting).
    pub line: usize,
}

/// A `skip` entry with its policy-file line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipEntry {
    /// Path substring.
    pub path: String,
    /// 1-based policy-file line (stale-suppression reporting).
    pub line: usize,
}

/// A declared `lock-order <before> before <after>` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrder {
    /// Lock that may be held first.
    pub before: String,
    /// Lock that may be acquired under it.
    pub after: String,
    /// Why the hierarchy runs this way.
    pub reason: String,
}

/// A `lock-fn` entry: calling `callee` acquires `lock`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockFn {
    /// Required receiver name (`cache.get` → `Some("cache")`), or any.
    pub receiver: Option<String>,
    /// Callee identifier.
    pub callee: String,
    /// Lock the call acquires.
    pub lock: String,
}

/// A path-scoped lock rename.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockAlias {
    /// Path substring the alias applies to.
    pub path: String,
    /// Derived (lexical) name.
    pub from: String,
    /// Canonical graph name.
    pub to: String,
}

/// A `hotpath-alloc` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotAlloc {
    /// Path substring.
    pub path: String,
    /// Function names to check; empty = the whole file.
    pub fns: Vec<String>,
}

/// The full audit policy.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Files under the `hotpath-panic` rule.
    pub hot_paths: Vec<String>,
    /// Files where undocumented `Relaxed` is allowed.
    pub relaxed_ok: Vec<AllowEntry>,
    /// Ordering-sensitive publish sites.
    pub publish: Vec<PublishRule>,
    /// Path substrings excluded from scanning entirely.
    pub skip: Vec<SkipEntry>,
    /// Declared lock hierarchy.
    pub lock_orders: Vec<LockOrder>,
    /// Calls that acquire a named lock.
    pub lock_fns: Vec<LockFn>,
    /// Wrappers acquiring the lock named by their first argument.
    pub lock_wrappers: Vec<String>,
    /// Path-scoped lock renames.
    pub lock_aliases: Vec<LockAlias>,
    /// Locks that may be held across blocking calls by design.
    pub lock_blocking_ok: Vec<String>,
    /// Extra callees the blocking rule treats as blocking.
    pub blocking_calls: Vec<String>,
    /// Files (or functions) under the `hotpath-alloc` rule.
    pub hotpath_alloc: Vec<HotAlloc>,
}

/// A policy-file parse error with its line number.
#[derive(Debug)]
pub struct PolicyError {
    /// 1-based line in the policy file.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

impl Policy {
    /// Parses the `audit.policy` text format.
    pub fn parse(text: &str) -> Result<Self, PolicyError> {
        let mut policy = Policy::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| PolicyError {
                line: idx + 1,
                message,
            };
            let (body, reason) = match line.split_once("--") {
                Some((b, r)) => (b.trim(), r.trim().to_string()),
                None => (line, String::new()),
            };
            let mut fields = body.split_whitespace();
            let keyword = fields.next().unwrap_or_default();
            match keyword {
                "hotpath" => {
                    let path = fields
                        .next()
                        .ok_or_else(|| err("hotpath needs a path".into()))?;
                    policy.hot_paths.push(path.to_string());
                }
                "relaxed-ok" => {
                    let path = fields
                        .next()
                        .ok_or_else(|| err("relaxed-ok needs a path".into()))?;
                    if reason.is_empty() {
                        return Err(err(format!(
                            "relaxed-ok {path} needs a `-- reason` justification"
                        )));
                    }
                    policy.relaxed_ok.push(AllowEntry {
                        path: path.to_string(),
                        reason,
                        line: idx + 1,
                    });
                }
                "publish" => {
                    let path = fields
                        .next()
                        .ok_or_else(|| err("publish needs a path".into()))?;
                    let access = fields
                        .next()
                        .ok_or_else(|| err("publish needs <field>.<method>".into()))?;
                    let (field, method) = access
                        .split_once('.')
                        .ok_or_else(|| err(format!("bad access spec '{access}'")))?;
                    let orderings = fields
                        .next()
                        .ok_or_else(|| err("publish needs allowed orderings".into()))?;
                    let allowed: Vec<String> =
                        orderings.split(',').map(|s| s.trim().to_string()).collect();
                    for o in &allowed {
                        if !ORDERINGS.contains(&o.as_str()) {
                            return Err(err(format!("unknown ordering '{o}'")));
                        }
                    }
                    if reason.is_empty() {
                        return Err(err(format!("publish {access} needs a `-- reason`")));
                    }
                    policy.publish.push(PublishRule {
                        path: path.to_string(),
                        field: field.to_string(),
                        method: method.to_string(),
                        allowed,
                        reason,
                    });
                }
                "skip" => {
                    let path = fields
                        .next()
                        .ok_or_else(|| err("skip needs a path".into()))?;
                    policy.skip.push(SkipEntry {
                        path: path.to_string(),
                        line: idx + 1,
                    });
                }
                "lock-order" => {
                    let before = fields
                        .next()
                        .ok_or_else(|| err("lock-order needs `<A> before <B>`".into()))?;
                    let kw = fields.next();
                    let after = fields.next();
                    let (Some("before"), Some(after)) = (kw, after) else {
                        return Err(err("lock-order needs `<A> before <B>`".into()));
                    };
                    if reason.is_empty() {
                        return Err(err(format!(
                            "lock-order {before} before {after} needs a `-- reason`"
                        )));
                    }
                    policy.lock_orders.push(LockOrder {
                        before: before.to_string(),
                        after: after.to_string(),
                        reason,
                    });
                }
                "lock-fn" => {
                    let callee = fields
                        .next()
                        .ok_or_else(|| err("lock-fn needs `[recv.]callee lock`".into()))?;
                    let lock = fields
                        .next()
                        .ok_or_else(|| err("lock-fn needs the lock name".into()))?;
                    let (receiver, callee) = match callee.split_once('.') {
                        Some((r, c)) => (Some(r.to_string()), c.to_string()),
                        None => (None, callee.to_string()),
                    };
                    policy.lock_fns.push(LockFn {
                        receiver,
                        callee,
                        lock: lock.to_string(),
                    });
                }
                "lock-wrapper" => {
                    let callee = fields
                        .next()
                        .ok_or_else(|| err("lock-wrapper needs a callee".into()))?;
                    policy.lock_wrappers.push(callee.to_string());
                }
                "lock-alias" => {
                    let path = fields
                        .next()
                        .ok_or_else(|| err("lock-alias needs `path derived canonical`".into()))?;
                    let from = fields
                        .next()
                        .ok_or_else(|| err("lock-alias needs the derived name".into()))?;
                    let to = fields
                        .next()
                        .ok_or_else(|| err("lock-alias needs the canonical name".into()))?;
                    policy.lock_aliases.push(LockAlias {
                        path: path.to_string(),
                        from: from.to_string(),
                        to: to.to_string(),
                    });
                }
                "lock-allows-blocking" => {
                    let lock = fields
                        .next()
                        .ok_or_else(|| err("lock-allows-blocking needs a lock name".into()))?;
                    if reason.is_empty() {
                        return Err(err(format!(
                            "lock-allows-blocking {lock} needs a `-- reason`"
                        )));
                    }
                    policy.lock_blocking_ok.push(lock.to_string());
                }
                "blocking-call" => {
                    let callee = fields
                        .next()
                        .ok_or_else(|| err("blocking-call needs a callee".into()))?;
                    if reason.is_empty() {
                        return Err(err(format!("blocking-call {callee} needs a `-- reason`")));
                    }
                    policy.blocking_calls.push(callee.to_string());
                }
                "hotpath-alloc" => {
                    let path = fields
                        .next()
                        .ok_or_else(|| err("hotpath-alloc needs a path".into()))?;
                    let mut fns = Vec::new();
                    if let Some(spec) = fields.next() {
                        let names = spec
                            .strip_prefix("fn=")
                            .ok_or_else(|| err(format!("expected `fn=a,b,...`, got '{spec}'")))?;
                        fns = names
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                        if fns.is_empty() {
                            return Err(err("fn= needs at least one function name".into()));
                        }
                    }
                    policy.hotpath_alloc.push(HotAlloc {
                        path: path.to_string(),
                        fns,
                    });
                }
                other => return Err(err(format!("unknown policy keyword '{other}'"))),
            }
            if let Some(extra) = fields.next() {
                return Err(err(format!("trailing field '{extra}'")));
            }
        }
        if let Some(cycle) = declared_order_cycle(&policy.lock_orders) {
            return Err(PolicyError {
                line: 0,
                message: format!("declared lock-order hierarchy is cyclic through `{cycle}`"),
            });
        }
        Ok(policy)
    }

    /// Loads a policy file from disk.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The repository's canonical policy: `audit.policy` at the
    /// workspace root.
    pub fn default_workspace() -> Self {
        Self::parse(DEFAULT_POLICY).expect("embedded policy must parse")
    }

    /// True when `path` (a `/`-separated relative path) is a hot path.
    pub fn is_hot_path(&self, path: &str) -> bool {
        self.hot_paths.iter().any(|p| path.contains(p.as_str()))
    }

    /// Allowlist entry covering `path`, if any.
    pub fn relaxed_ok_for(&self, path: &str) -> Option<&AllowEntry> {
        self.relaxed_ok
            .iter()
            .find(|e| path.contains(e.path.as_str()))
    }

    /// Publish rules applying to `path`.
    pub fn publish_rules_for<'a>(
        &'a self,
        path: &'a str,
    ) -> impl Iterator<Item = &'a PublishRule> + 'a {
        self.publish
            .iter()
            .filter(move |r| path.contains(r.path.as_str()))
    }

    /// True when the engine must not scan `path` at all.
    pub fn is_skipped(&self, path: &str) -> bool {
        self.skip.iter().any(|p| path.contains(p.path.as_str()))
    }

    /// The `skip` entry matching `path`, if any.
    pub fn skip_entry_for(&self, path: &str) -> Option<&SkipEntry> {
        self.skip.iter().find(|p| path.contains(p.path.as_str()))
    }

    /// The `hotpath-alloc` entry covering `path`, if any.
    pub fn hot_alloc_for(&self, path: &str) -> Option<&HotAlloc> {
        self.hotpath_alloc
            .iter()
            .find(|e| path.contains(e.path.as_str()))
    }

    /// Canonical name of a lexically-derived lock name within `path`.
    pub fn canonical_lock<'a>(&'a self, path: &str, derived: &'a str) -> &'a str {
        self.lock_aliases
            .iter()
            .find(|a| path.contains(a.path.as_str()) && a.from == derived)
            .map(|a| a.to.as_str())
            .unwrap_or(derived)
    }

    /// True when guards of `lock` may be held across blocking calls.
    pub fn lock_allows_blocking(&self, lock: &str) -> bool {
        self.lock_blocking_ok.iter().any(|l| l == lock)
    }
}

/// A lock name on a cycle in the declared `lock-order` relation, if the
/// declarations are not a partial order.
fn declared_order_cycle(orders: &[LockOrder]) -> Option<String> {
    let mut names: Vec<&str> = Vec::new();
    for o in orders {
        for n in [o.before.as_str(), o.after.as_str()] {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    let idx = |n: &str| names.iter().position(|m| *m == n).unwrap();
    let n = names.len();
    let mut reach = vec![false; n * n];
    for o in orders {
        reach[idx(&o.before) * n + idx(&o.after)] = true;
    }
    // Transitive closure, then any self-reachable vertex is on a cycle.
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if reach[i * n + k] && reach[k * n + j] {
                    reach[i * n + j] = true;
                }
            }
        }
    }
    (0..n)
        .find(|&i| reach[i * n + i])
        .map(|i| names[i].to_string())
}

/// The workspace policy, compiled in from `audit.policy` at the
/// workspace root (the root file wins when present at run time).
pub const DEFAULT_POLICY: &str = include_str!("../../../audit.policy");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_parses_and_covers_hot_paths() {
        let p = Policy::default_workspace();
        assert!(p.is_hot_path("crates/core/src/localmove.rs"));
        assert!(p.is_hot_path("crates/net/src/server.rs"));
        assert!(!p.is_hot_path("crates/core/src/config.rs"));
        assert!(!p.is_skipped("shims/rayon/src/lib.rs"));
        assert!(p.is_skipped("shims/loom/src/lib.rs"));
        assert!(p.is_skipped("crates/audit/tests/fixtures/bad.rs"));
        assert!(p
            .publish_rules_for("crates/net/src/server.rs")
            .any(|r| r.field == "stopping" && r.method == "store"));
    }

    #[test]
    fn default_policy_declares_the_serve_lock_hierarchy() {
        let p = Policy::default_workspace();
        assert!(p
            .lock_orders
            .iter()
            .any(|o| o.before == "update_gate" && o.after == "entry"));
        assert!(p.lock_wrappers.iter().any(|w| w == "lock_clean"));
        assert!(p.lock_allows_blocking("update_gate"));
        assert!(!p.lock_allows_blocking("entry"));
        assert_eq!(
            p.canonical_lock("crates/serve/src/handlers.rs", "cell"),
            "entry"
        );
        assert_eq!(p.canonical_lock("crates/net/src/server.rs", "cell"), "cell");
        let reactor = p.hot_alloc_for("crates/net/src/server.rs").expect("entry");
        assert!(reactor.fns.iter().any(|f| f == "expire_deadlines"));
        assert!(p.hot_alloc_for("crates/core/src/kernel.rs").is_some());
        assert!(p.hot_alloc_for("crates/serve/src/jobs.rs").is_none());
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        assert!(Policy::parse("hotpath").is_err());
        assert!(
            Policy::parse("relaxed-ok foo.rs").is_err(),
            "missing reason"
        );
        assert!(Policy::parse("publish a.rs shutdown.store Bogus -- r").is_err());
        assert!(Policy::parse("publish a.rs shutdownstore Release -- r").is_err());
        assert!(Policy::parse("frobnicate x").is_err());
        assert!(Policy::parse("hotpath a.rs extra").is_err());
        assert!(Policy::parse("lock-order a b -- r").is_err(), "no `before`");
        assert!(Policy::parse("lock-order a before b").is_err(), "no reason");
        assert!(Policy::parse("lock-fn only_callee").is_err());
        assert!(Policy::parse("blocking-call recv").is_err(), "no reason");
        assert!(Policy::parse("lock-allows-blocking g").is_err(), "reason");
        assert!(Policy::parse("hotpath-alloc a.rs bogus=x").is_err());
        assert!(Policy::parse("hotpath-alloc a.rs fn=").is_err());
    }

    #[test]
    fn parse_rejects_cyclic_declared_hierarchy() {
        let cyclic = "lock-order a before b -- r\n\
                      lock-order b before c -- r\n\
                      lock-order c before a -- r\n";
        let e = Policy::parse(cyclic).expect_err("cycle must be rejected");
        assert!(e.message.contains("cyclic"), "{e}");
    }

    #[test]
    fn parse_accepts_reasons_and_ordering_lists() {
        let p = Policy::parse(
            "publish x.rs flag.store Release,SeqCst -- because\nrelaxed-ok y.rs -- counters only\n",
        )
        .unwrap();
        assert_eq!(p.publish[0].allowed, vec!["Release", "SeqCst"]);
        assert_eq!(p.relaxed_ok[0].reason, "counters only");
        assert_eq!(p.relaxed_ok[0].line, 2);
    }

    #[test]
    fn parse_accepts_the_v2_lock_model_keywords() {
        let p = Policy::parse(
            "lock-order a before b -- why\n\
             lock-fn recv.get inner\n\
             lock-fn begin_update gate -- constructor\n\
             lock-wrapper lock_clean\n\
             lock-alias x.rs cell entry -- local name\n\
             lock-allows-blocking gate -- by design\n\
             blocking-call apply_batch -- long compute\n\
             hotpath-alloc hot.rs fn=step,tick\n",
        )
        .unwrap();
        assert_eq!(p.lock_orders[0].before, "a");
        assert_eq!(p.lock_fns[0].receiver.as_deref(), Some("recv"));
        assert_eq!(p.lock_fns[1].receiver, None);
        assert_eq!(p.lock_fns[1].lock, "gate");
        assert_eq!(p.lock_aliases[0].from, "cell");
        assert!(p.blocking_calls.iter().any(|c| c == "apply_batch"));
        assert_eq!(p.hotpath_alloc[0].fns, vec!["step", "tick"]);
    }
}
