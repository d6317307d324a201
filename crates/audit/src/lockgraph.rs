//! The workspace-wide lock acquisition graph and the `lock-order` rule.
//!
//! `crate::scopes` contributes one edge per observed nested
//! acquisition — lock `from` held while acquiring lock `to`. This
//! module judges the union of every file's edges against the policy's
//! declared `lock-order` hierarchy:
//!
//! * an edge that *inverts* a declared order (the declaration's
//!   transitive closure contains `to before from`) is a violation;
//! * an edge covered by the closure (`from before to`) is fine;
//! * any other edge is an **undeclared nested acquisition** — the
//!   hierarchy in `audit.policy` must name every nesting the workspace
//!   performs, so a new nesting is a reviewable policy diff, not a
//!   silent fact;
//! * any cycle in the observed graph is a **potential deadlock**,
//!   reported with the full lock chain and the site of each edge.
//!
//! Vertex names are the canonical lock names produced by the scope
//! walk (receiver-derived, wrapper-derived, `lock-fn` mappings, all
//! after `lock-alias` rewriting) — so `update_gate`, `entry`, `table`,
//! `cache_inner`, not variable names.

use crate::policy::Policy;
use crate::rules::{violation_at, Severity, Violation};

/// One observed nested acquisition: `from` held while taking `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub from: String,
    /// Lock being acquired under it.
    pub to: String,
    /// Workspace-relative file of the inner acquisition.
    pub path: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
}

/// Judges observed edges against the declared hierarchy and reports
/// order inversions, undeclared nestings, and cycles.
pub fn analyze(edges: &[LockEdge], policy: &Policy) -> Vec<Violation> {
    const RULE: &str = "lock-order";
    // Dedupe observed edges by (from, to), keeping the first site.
    let mut observed: Vec<&LockEdge> = Vec::new();
    for e in edges {
        if !observed.iter().any(|o| o.from == e.from && o.to == e.to) {
            observed.push(e);
        }
    }

    // Name universe: declared + observed.
    let mut names: Vec<&str> = Vec::new();
    for o in &policy.lock_orders {
        for n in [o.before.as_str(), o.after.as_str()] {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    for e in &observed {
        for n in [e.from.as_str(), e.to.as_str()] {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    let n = names.len();
    let idx = |s: &str| names.iter().position(|m| *m == s).unwrap();

    // Transitive closure of the declared order.
    let mut declared = vec![false; n * n];
    for o in &policy.lock_orders {
        declared[idx(&o.before) * n + idx(&o.after)] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if declared[i * n + k] && declared[k * n + j] {
                    declared[i * n + j] = true;
                }
            }
        }
    }

    let mut out = Vec::new();
    for e in &observed {
        let (fi, ti) = (idx(&e.from), idx(&e.to));
        if declared[ti * n + fi] {
            out.push(violation_at(
                &e.path,
                RULE,
                e.line,
                Severity::Error,
                format!(
                    "`{}` held while acquiring `{}`, but the policy declares \
                     `lock-order {} before {}` — this inversion can deadlock \
                     against a conforming thread",
                    e.from, e.to, e.to, e.from
                ),
            ));
        } else if !declared[fi * n + ti] {
            out.push(violation_at(
                &e.path,
                RULE,
                e.line,
                Severity::Error,
                format!(
                    "undeclared nested lock acquisition: `{}` held while acquiring \
                     `{}` — declare `lock-order {} before {}` in audit.policy or \
                     restructure to drop the outer guard first",
                    e.from, e.to, e.from, e.to
                ),
            ));
        }
    }

    // Cycles in the *observed* graph are potential deadlocks regardless
    // of declarations. DFS with an explicit stack-trace per start
    // vertex; cycles are canonicalized (rotated to their minimum
    // vertex) so each is reported once.
    let mut adj = vec![Vec::new(); n];
    for e in &observed {
        adj[idx(&e.from)].push(idx(&e.to));
    }
    let mut reported: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        let mut stack = vec![(start, 0usize)];
        let mut path = vec![start];
        while let Some(&(v, next)) = stack.last() {
            if next < adj[v].len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let w = adj[v][next];
                if let Some(pos) = path.iter().position(|&p| p == w) {
                    let cycle = canonical_cycle(&path[pos..]);
                    if !reported.contains(&cycle) {
                        reported.push(cycle.clone());
                        let chain: Vec<&str> = cycle
                            .iter()
                            .chain(cycle.first())
                            .map(|&i| names[i])
                            .collect();
                        let sites: Vec<String> = cycle
                            .iter()
                            .zip(cycle.iter().cycle().skip(1))
                            .filter_map(|(&a, &b)| {
                                observed
                                    .iter()
                                    .find(|e| idx(&e.from) == a && idx(&e.to) == b)
                                    .map(|e| format!("{}:{}", e.path, e.line))
                            })
                            .collect();
                        let anchor = observed
                            .iter()
                            .find(|e| idx(&e.from) == cycle[0])
                            .expect("cycle edges are observed");
                        out.push(violation_at(
                            &anchor.path,
                            RULE,
                            anchor.line,
                            Severity::Error,
                            format!(
                                "potential deadlock: lock acquisition cycle {} \
                                 (held-while-acquiring edges at {})",
                                chain.join(" → "),
                                sites.join(", ")
                            ),
                        ));
                    }
                } else if path.len() <= n {
                    stack.push((w, 0));
                    path.push(w);
                }
            } else {
                stack.pop();
                path.pop();
            }
        }
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.message.as_str(),
        ))
    });
    out
}

/// Rotates a cycle so it starts at its minimum vertex.
fn canonical_cycle(cycle: &[usize]) -> Vec<usize> {
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, &v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[min_pos..]);
    out.extend_from_slice(&cycle[..min_pos]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: &str, to: &str, line: u32) -> LockEdge {
        LockEdge {
            from: from.to_string(),
            to: to.to_string(),
            path: "crates/x/src/lib.rs".to_string(),
            line,
        }
    }

    #[test]
    fn declared_edges_pass_including_transitively() {
        let p = Policy::parse("lock-order a before b -- r\nlock-order b before c -- r\n").unwrap();
        let found = analyze(&[edge("a", "b", 1), edge("a", "c", 2)], &p);
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn inversion_of_declared_order_is_an_error() {
        let p = Policy::parse("lock-order a before b -- r\n").unwrap();
        let found = analyze(&[edge("b", "a", 7)], &p);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].message.contains("inversion"), "{found:#?}");
        assert_eq!(found[0].line, 7);
    }

    #[test]
    fn undeclared_nesting_is_an_error_naming_the_fix() {
        let found = analyze(&[edge("x", "y", 3)], &Policy::default());
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("lock-order x before y"));
    }

    #[test]
    fn two_lock_cycle_is_reported_once_as_deadlock() {
        let p = Policy::parse("lock-order a before b -- r\n").unwrap();
        let found = analyze(&[edge("a", "b", 1), edge("b", "a", 2)], &p);
        let cycles: Vec<&Violation> = found
            .iter()
            .filter(|v| v.message.contains("potential deadlock"))
            .collect();
        assert_eq!(cycles.len(), 1, "{found:#?}");
        assert!(cycles[0].message.contains("a → b → a"));
        // The inversion is also reported in its own right.
        assert!(found.iter().any(|v| v.message.contains("inversion")));
    }

    #[test]
    fn three_lock_cycle_lists_every_site() {
        let found = analyze(
            &[edge("a", "b", 1), edge("b", "c", 2), edge("c", "a", 3)],
            &Policy::default(),
        );
        let cycle = found
            .iter()
            .find(|v| v.message.contains("potential deadlock"))
            .expect("cycle reported");
        assert!(cycle.message.contains("a → b → c → a"), "{cycle:#?}");
        assert!(cycle.message.contains(":1"));
        assert!(cycle.message.contains(":2"));
        assert!(cycle.message.contains(":3"));
    }

    #[test]
    fn duplicate_edges_collapse_to_one_finding() {
        let found = analyze(&[edge("x", "y", 3), edge("x", "y", 9)], &Policy::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3, "first site wins");
    }
}
