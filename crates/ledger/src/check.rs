//! Correctness checks. Every failed check counts one failed operation
//! and makes the run report `correct: false`.

use gve_graph::{CsrGraph, VertexId};
use gve_serve::json::{self, Json};

/// What checking one detected partition found.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCheck {
    /// Modularity of the partition.
    pub modularity: f64,
    /// Communities that are not internally connected.
    pub disconnected: usize,
    /// Why the partition is wrong, if it is.
    pub problem: Option<String>,
}

/// Checks a detected partition: a valid dense membership, no
/// internally disconnected community (the Leiden guarantee), and
/// modularity at least `floor`.
pub fn partition(graph: &CsrGraph, membership: &[VertexId], floor: f64) -> PartitionCheck {
    if let Err(e) = gve_quality::validate_membership(membership, graph.num_vertices()) {
        return PartitionCheck {
            modularity: 0.0,
            disconnected: 0,
            problem: Some(format!("invalid membership: {e}")),
        };
    }
    let modularity = gve_quality::modularity(graph, membership);
    let report = gve_quality::disconnected_communities(graph, membership);
    let problem = if report.disconnected > 0 {
        Some(format!(
            "{} of {} communities are disconnected",
            report.disconnected, report.communities
        ))
    } else if modularity < floor {
        Some(format!(
            "modularity {modularity} is below the floor {floor}"
        ))
    } else {
        None
    };
    PartitionCheck {
        modularity,
        disconnected: report.disconnected,
        problem,
    }
}

fn parse(body: &str) -> Result<Json, String> {
    json::parse(body).map_err(|e| format!("unparseable response {e}"))
}

fn number(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response lacks a whole '{key}'"))
}

/// A served partition: `GET /graphs/{name}/membership`.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Epoch the partition belongs to.
    pub epoch: u64,
    /// Community of every vertex.
    pub membership: Vec<VertexId>,
    /// Modularity the server computed.
    pub modularity: f64,
}

/// Parses a full membership response.
pub fn served(body: &str) -> Result<Served, String> {
    let value = parse(body)?;
    let membership = value
        .get("membership")
        .and_then(Json::as_array)
        .ok_or("response lacks 'membership'")?
        .iter()
        .map(|c| {
            c.as_u64()
                .and_then(|c| VertexId::try_from(c).ok())
                .ok_or_else(|| "membership holds a non-id".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Served {
        epoch: number(&value, "epoch")?,
        membership,
        modularity: value
            .get("modularity")
            .and_then(Json::as_f64)
            .ok_or("response lacks 'modularity'")?,
    })
}

/// The community a `membership?vertex=v` response names.
pub fn vertex_community(body: &str) -> Result<u64, String> {
    number(&parse(body)?, "community")
}

/// A `delta?since=E` response.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Current epoch.
    pub epoch: u64,
    /// The server could not cover `E` and asks for a full fetch.
    pub resync: bool,
    /// `(vertex, community)` changes since `E`.
    pub changes: Vec<(VertexId, VertexId)>,
}

/// Parses a delta response.
pub fn delta(body: &str) -> Result<Delta, String> {
    let value = parse(body)?;
    let changes = value
        .get("changes")
        .and_then(Json::as_array)
        .ok_or("response lacks 'changes'")?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([v, c]) => match (v.as_u64(), c.as_u64()) {
                (Some(v), Some(c)) => Ok((v as VertexId, c as VertexId)),
                _ => Err("a change holds a non-id".to_string()),
            },
            _ => Err("a change is not a [vertex, community] pair".to_string()),
        })
        .collect::<Result<_, _>>()?;
    Ok(Delta {
        epoch: number(&value, "epoch")?,
        resync: value
            .get("resync")
            .and_then(Json::as_bool)
            .ok_or("response lacks 'resync'")?,
        changes,
    })
}

/// Checks that applying `delta` to the membership served at its base
/// epoch gives `target`, the membership served at `delta.epoch`.
pub fn delta_rebuilds(base: &[VertexId], delta: &Delta, target: &Served) -> Result<(), String> {
    if delta.resync {
        return Err("delta asked for a resync".to_string());
    }
    if delta.epoch != target.epoch {
        return Err(format!(
            "delta reaches epoch {} but the membership is at {}",
            delta.epoch, target.epoch
        ));
    }
    let mut rebuilt = base.to_vec();
    for &(v, c) in &delta.changes {
        let v = v as usize;
        if v >= rebuilt.len() {
            rebuilt.resize(v + 1, VertexId::MAX);
        }
        rebuilt[v] = c;
    }
    match rebuilt
        .iter()
        .zip(&target.membership)
        .position(|(a, b)| a != b)
    {
        _ if rebuilt.len() != target.membership.len() => Err(format!(
            "rebuilt membership has {} vertices, served {}",
            rebuilt.len(),
            target.membership.len()
        )),
        Some(v) => Err(format!(
            "vertex {v}: base plus delta gives {}, served {}",
            rebuilt[v], target.membership[v]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;

    fn two_triangles() -> CsrGraph {
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
            ],
        )
    }

    #[test]
    fn a_tampered_partition_fails() {
        let graph = two_triangles();
        let good = partition(&graph, &[0, 0, 0, 1, 1, 1], 0.3);
        assert_eq!(good.problem, None);
        assert_eq!(good.disconnected, 0);

        // One community spanning both triangles is disconnected.
        let merged = partition(&graph, &[0, 0, 0, 0, 0, 0], -1.0);
        assert_eq!(merged.disconnected, 1);
        assert!(merged.problem.is_some());
        // Out-of-range ids, and a partition below the floor.
        assert!(partition(&graph, &[0, 0, 0, 1, 1, 9], -1.0)
            .problem
            .is_some());
        assert!(partition(&graph, &[0, 1, 2, 3, 4, 5], 0.3)
            .problem
            .is_some());
    }

    #[test]
    fn a_tampered_delta_or_membership_fails_the_rebuild() {
        let base =
            served(r#"{"graph":"g","epoch":3,"modularity":0.5,"membership":[0,0,1,1]}"#).unwrap();
        let target =
            served(r#"{"graph":"g","epoch":5,"modularity":0.5,"membership":[0,1,1,1]}"#).unwrap();
        let good = delta(r#"{"epoch":5,"since":3,"resync":false,"changes":[[1,1]]}"#).unwrap();
        assert_eq!(delta_rebuilds(&base.membership, &good, &target), Ok(()));

        let wrong_community =
            delta(r#"{"epoch":5,"since":3,"resync":false,"changes":[[1,0]]}"#).unwrap();
        assert!(delta_rebuilds(&base.membership, &wrong_community, &target).is_err());
        let missing = delta(r#"{"epoch":5,"since":3,"resync":false,"changes":[]}"#).unwrap();
        assert!(delta_rebuilds(&base.membership, &missing, &target).is_err());
        let stale = delta(r#"{"epoch":4,"since":3,"resync":false,"changes":[[1,1]]}"#).unwrap();
        assert!(delta_rebuilds(&base.membership, &stale, &target).is_err());
        let resync = delta(r#"{"epoch":5,"since":3,"resync":true,"changes":[]}"#).unwrap();
        assert!(delta_rebuilds(&base.membership, &resync, &target).is_err());

        let mut tampered = target.clone();
        tampered.membership[3] = 0;
        assert!(delta_rebuilds(&base.membership, &good, &tampered).is_err());
        tampered.membership.push(2);
        assert!(delta_rebuilds(&base.membership, &good, &tampered).is_err());
    }

    #[test]
    fn vertex_answers_parse() {
        assert_eq!(
            vertex_community(r#"{"graph":"g","epoch":0,"vertex":4,"community":2}"#),
            Ok(2)
        );
        assert!(vertex_community(r#"{"error":"no"}"#).is_err());
    }
}
