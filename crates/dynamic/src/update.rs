//! Batch edge updates applied to an immutable CSR graph.
//!
//! A [`BatchUpdate`] collects undirected insertions and deletions;
//! [`apply_batch`] produces the updated graph in one sequential merge:
//! the edits are expanded into two flat directed lists sorted by
//! (source, target), then each old CSR row is merged with its edits
//! (old neighbours − deletions + insertions) straight into the new
//! graph's preallocated CSR arrays. Besides the output it allocates
//! only the two edit lists: 24 B per insertion and 16 B per deletion.

use gve_graph::{CsrGraph, EdgeWeight, VertexId};
use std::collections::HashSet;

/// A batch of undirected edge updates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchUpdate {
    /// Edges to insert (undirected; also used to update weights of
    /// existing edges — the weights add).
    pub insertions: Vec<(VertexId, VertexId, EdgeWeight)>,
    /// Edges to delete (undirected; deleting a missing edge is a no-op).
    pub deletions: Vec<(VertexId, VertexId)>,
    /// Highest vertex id of an insertion that [`merge`](Self::merge)
    /// cancelled. Applying the parts in turn would have grown the vertex
    /// set to cover it, so the merged batch still grows that far.
    pub vertex_floor: Option<VertexId>,
}

impl BatchUpdate {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an undirected insertion.
    pub fn insert(&mut self, u: VertexId, v: VertexId, w: EdgeWeight) -> &mut Self {
        self.insertions.push((u, v, w));
        self
    }

    /// Queues an undirected deletion.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.deletions.push((u, v));
        self
    }

    /// True when the batch holds no updates and grows no vertices.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty() && self.vertex_floor.is_none()
    }

    /// Total number of queued updates.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// Highest vertex id referenced by the batch, if any.
    pub fn max_vertex(&self) -> Option<VertexId> {
        self.insertions
            .iter()
            .map(|&(u, v, _)| u.max(v))
            .chain(self.deletions.iter().map(|&(u, v)| u.max(v)))
            .max()
    }

    /// Highest vertex id referenced by an **insertion** (including the
    /// [`vertex_floor`](Self::vertex_floor) of cancelled ones), if any.
    /// This — not [`max_vertex`](Self::max_vertex) — is what decides how
    /// far the vertex set grows under [`apply_batch`]: deleting an edge
    /// of a vertex the graph has never seen is a no-op, so deletions
    /// must never allocate vertices.
    pub fn max_inserted_vertex(&self) -> Option<VertexId> {
        self.insertions
            .iter()
            .map(|&(u, v, _)| u.max(v))
            .chain(self.vertex_floor)
            .max()
    }

    /// Folds `later` into `self`, producing one batch equivalent to
    /// applying `self` then `later` (the ingest-queue coalescing rule):
    ///
    /// * insertions concatenate — repeated weights add at apply time;
    /// * a deletion in `later` cancels every **queued** insertion of the
    ///   same undirected pair in `self` and is then queued itself, so it
    ///   still removes any pre-existing edge; the cancelled insertion's
    ///   vertex growth is kept in [`vertex_floor`](Self::vertex_floor);
    /// * insertions in `later` survive deletions queued before them,
    ///   because [`apply_batch`] removes deleted pairs from the old
    ///   graph *before* adding insertions.
    pub fn merge(&mut self, later: &BatchUpdate) {
        if !later.deletions.is_empty() && !self.insertions.is_empty() {
            let cancelled: HashSet<(VertexId, VertexId)> = later
                .deletions
                .iter()
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .collect();
            let mut floor = self.vertex_floor;
            self.insertions.retain(|&(u, v, _)| {
                let keep = !cancelled.contains(&(u.min(v), u.max(v)));
                if !keep {
                    floor = floor.max(Some(u.max(v)));
                }
                keep
            });
            self.vertex_floor = floor;
        }
        self.vertex_floor = self.vertex_floor.max(later.vertex_floor);
        self.deletions.extend_from_slice(&later.deletions);
        self.insertions.extend_from_slice(&later.insertions);
    }
}

/// Applies a batch to a graph, returning the updated graph. The vertex
/// set grows to cover any new ids referenced by **insertions** (deleting
/// an edge of an unknown vertex is a no-op, like deleting a missing
/// edge); weights of repeated insertions (and of insertions over
/// existing edges) add up, left to right in batch order.
///
/// Rows of `graph` must be sorted by target, as every `GraphBuilder`
/// graph is; the result's rows are too.
pub fn apply_batch(graph: &CsrGraph, batch: &BatchUpdate) -> CsrGraph {
    if batch.is_empty() {
        return graph.clone();
    }
    let old_n = graph.num_vertices();
    let n = old_n.max(batch.max_inserted_vertex().map_or(0, |v| v as usize + 1));

    // Directed edits sorted by (source, target). An insertion carries
    // its batch index instead of its weight: the index breaks ties, so
    // repeated insertions of one arc sort in batch order and their
    // weights fold left to right, as applying the batch one edge at a
    // time would.
    let index = |i: usize| u32::try_from(i).expect("fewer than 2^32 insertions per batch");
    let mut inserts: Vec<(VertexId, VertexId, u32)> =
        Vec::with_capacity(2 * batch.insertions.len());
    for (i, &(u, v, _)) in batch.insertions.iter().enumerate() {
        inserts.push((u, v, index(i)));
        if u != v {
            inserts.push((v, u, index(i)));
        }
    }
    inserts.sort_unstable();
    let mut deletes: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * batch.deletions.len());
    for &(u, v) in &batch.deletions {
        deletes.push((u, v));
        if u != v {
            deletes.push((v, u));
        }
    }
    deletes.sort_unstable();

    // One merge, straight into the output arrays: each old row minus
    // its deleted targets, plus its insertions. Deletions of vertices
    // at or past `n` sort last and are never reached.
    let capacity = graph.num_arcs() + inserts.len();
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut targets: Vec<VertexId> = Vec::with_capacity(capacity);
    let mut weights: Vec<EdgeWeight> = Vec::with_capacity(capacity);
    offsets.push(0);
    let (mut ins, mut dels) = (&inserts[..], &deletes[..]);
    for u in 0..n as VertexId {
        let (row_ins, rest) = ins.split_at(ins.partition_point(|e| e.0 == u));
        ins = rest;
        let (row_dels, rest) = dels.split_at(dels.partition_point(|e| e.0 == u));
        dels = rest;
        let row_start = targets.len();
        // Appends an insertion, folding its weight into the row's last
        // arc when that arc has the same target (sorted input makes
        // those adjacent).
        let push_ins = |targets: &mut Vec<VertexId>, weights: &mut Vec<EdgeWeight>, i: usize| {
            let (_, v, at) = row_ins[i];
            let w = batch.insertions[at as usize].2;
            match weights.last_mut() {
                Some(last) if targets.len() > row_start && targets.last() == Some(&v) => *last += w,
                _ => {
                    targets.push(v);
                    weights.push(w);
                }
            }
        };
        let (mut di, mut ii) = (0usize, 0usize);
        if (u as usize) < old_n {
            for (&v, &w) in graph.neighbors(u).iter().zip(graph.edge_weights(u)) {
                // Deleted pair? (row_dels may hold duplicates; advance
                // past everything smaller first.)
                while di < row_dels.len() && row_dels[di].1 < v {
                    di += 1;
                }
                if di < row_dels.len() && row_dels[di].1 == v {
                    continue;
                }
                // Insertions targeting ids before v land first…
                while ii < row_ins.len() && row_ins[ii].1 < v {
                    push_ins(&mut targets, &mut weights, ii);
                    ii += 1;
                }
                targets.push(v);
                weights.push(w);
                // …and insertions over the existing arc add weight.
                while ii < row_ins.len() && row_ins[ii].1 == v {
                    push_ins(&mut targets, &mut weights, ii);
                    ii += 1;
                }
            }
        }
        for i in ii..row_ins.len() {
            push_ins(&mut targets, &mut weights, i);
        }
        offsets.push(targets.len() as u64);
    }
    CsrGraph::from_raw(offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;

    fn path_graph() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    }

    #[test]
    fn insertion_adds_both_arcs() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 3, 2.0);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_arcs(), g.num_arcs() + 2);
        assert!(updated.has_arc(0, 3));
        assert!(updated.has_arc(3, 0));
        assert!(updated.is_symmetric());
    }

    #[test]
    fn deletion_removes_both_arcs() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.delete(1, 2);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_arcs(), g.num_arcs() - 2);
        assert!(!updated.has_arc(1, 2));
        assert!(!updated.has_arc(2, 1));
    }

    #[test]
    fn deleting_missing_edge_is_noop() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.delete(0, 3);
        assert_eq!(apply_batch(&g, &batch), g);
    }

    #[test]
    fn inserting_existing_edge_adds_weight() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 1, 0.5);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_arcs(), g.num_arcs());
        assert_eq!(updated.edges(0).collect::<Vec<_>>(), vec![(1, 1.5)]);
        assert_eq!(updated.edges(1).next(), Some((0, 1.5)));
    }

    #[test]
    fn new_vertices_are_appended() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(3, 6, 1.0);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_vertices(), 7);
        assert!(updated.has_arc(6, 3));
        assert_eq!(updated.degree(5), 0);
    }

    #[test]
    fn self_loop_insertion() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(2, 2, 4.0);
        let updated = apply_batch(&g, &batch);
        // Self-loop stored once.
        assert_eq!(updated.degree(2), 3);
        assert!(updated.has_arc(2, 2));
        assert_eq!(updated.weighted_degree(2), 2.0 + 4.0);
    }

    #[test]
    fn empty_batch_returns_clone() {
        let g = path_graph();
        assert_eq!(apply_batch(&g, &BatchUpdate::new()), g);
    }

    #[test]
    fn mixed_batch_and_accessors() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 2, 1.0).delete(0, 1).insert(1, 3, 1.0);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.max_vertex(), Some(3));
        let updated = apply_batch(&g, &batch);
        assert!(updated.has_arc(0, 2));
        assert!(updated.has_arc(1, 3));
        assert!(!updated.has_arc(0, 1));
        assert!(updated.is_symmetric());
    }

    #[test]
    fn deletions_do_not_grow_the_vertex_set() {
        // Regression: `delete(0, 100)` on a 4-vertex graph used to yield
        // a 101-vertex graph because `apply_batch` sized N from
        // `max_vertex()`, which chains deletions. Deleting an edge of an
        // unknown vertex must be a plain no-op.
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.delete(0, 100);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_vertices(), 4);
        assert_eq!(updated, g);

        // Mixed batch: only insertions decide how far N grows.
        let mut mixed = BatchUpdate::new();
        mixed.insert(3, 5, 1.0).delete(2, 50);
        assert_eq!(mixed.max_vertex(), Some(50));
        assert_eq!(mixed.max_inserted_vertex(), Some(5));
        assert_eq!(apply_batch(&g, &mixed).num_vertices(), 6);
    }

    #[test]
    fn merge_matches_sequential_application() {
        let g = path_graph();
        let mut first = BatchUpdate::new();
        first.insert(0, 3, 1.0).delete(1, 2).insert(2, 5, 2.0);
        let mut second = BatchUpdate::new();
        second.insert(1, 2, 0.5).delete(0, 3).insert(0, 3, 4.0);

        let sequential = apply_batch(&apply_batch(&g, &first), &second);
        let mut merged = first.clone();
        merged.merge(&second);
        assert_eq!(apply_batch(&g, &merged), sequential);
    }

    #[test]
    fn merge_deletion_cancels_queued_insertion() {
        let g = path_graph();
        // Queue an insertion, then delete the same (undirected) pair in a
        // later batch: the pair must not exist afterwards, matching the
        // sequential insert-then-delete outcome.
        let mut first = BatchUpdate::new();
        first.insert(3, 0, 2.0);
        let mut second = BatchUpdate::new();
        second.delete(0, 3);
        let mut merged = first.clone();
        merged.merge(&second);
        assert!(merged.insertions.is_empty());
        assert_eq!(apply_batch(&g, &merged), g);

        // And the reverse order: a deletion queued before an insertion
        // leaves the inserted edge in place with the *batch* weight (the
        // deletion removed the pre-existing edge first).
        let mut del_first = BatchUpdate::new();
        del_first.delete(0, 1);
        let mut ins_second = BatchUpdate::new();
        ins_second.insert(0, 1, 7.0);
        let sequential = apply_batch(&apply_batch(&g, &del_first), &ins_second);
        let mut merged = del_first.clone();
        merged.merge(&ins_second);
        let via_merge = apply_batch(&g, &merged);
        assert_eq!(via_merge, sequential);
        assert_eq!(via_merge.edges(0).collect::<Vec<_>>(), vec![(1, 7.0)]);
    }

    #[test]
    fn merge_keeps_vertex_growth_of_cancelled_insertion() {
        // Regression: inserting (0, 9) into a 4-vertex graph and then
        // deleting it gave 10 vertices applied in turn but 4 coalesced,
        // because the cancelled insertion took its vertex growth along.
        let g = path_graph();
        let mut first = BatchUpdate::new();
        first.insert(0, 9, 1.0);
        let mut second = BatchUpdate::new();
        second.delete(0, 9);

        let sequential = apply_batch(&apply_batch(&g, &first), &second);
        let mut merged = first.clone();
        merged.merge(&second);
        assert!(merged.insertions.is_empty());
        assert_eq!(merged.vertex_floor, Some(9));
        let coalesced = apply_batch(&g, &merged);
        assert_eq!(sequential.num_vertices(), 10);
        assert_eq!(coalesced.num_vertices(), sequential.num_vertices());
        assert_eq!(coalesced, sequential);

        // The floor survives further merges, including into a batch
        // that never saw the cancelled insertion.
        let mut third = BatchUpdate::new();
        third.insert(1, 2, 1.0);
        let mut outer = BatchUpdate::new();
        outer.merge(&merged);
        outer.merge(&third);
        assert_eq!(outer.max_inserted_vertex(), Some(9));
        assert_eq!(
            apply_batch(&g, &outer),
            apply_batch(&sequential, &third),
            "floor carried through a second merge"
        );
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let g = path_graph();
        let mut add = BatchUpdate::new();
        add.insert(0, 3, 1.0);
        let mut remove = BatchUpdate::new();
        remove.delete(0, 3);
        assert_eq!(apply_batch(&apply_batch(&g, &add), &remove), g);
    }
}
