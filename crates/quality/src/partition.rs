//! Membership-vector utilities: validation and size stats.

use gve_graph::VertexId;

/// Checks that a membership vector is well-formed for a graph of `n`
/// vertices: right length, and every id addressable as an index.
pub fn validate_membership(membership: &[VertexId], n: usize) -> Result<(), String> {
    if membership.len() != n {
        return Err(format!(
            "membership length {} != vertex count {n}",
            membership.len()
        ));
    }
    if let Some((v, &c)) = membership
        .iter()
        .enumerate()
        .find(|&(_, &c)| c as usize >= n.max(1))
    {
        return Err(format!("vertex {v} has community id {c} >= {n}"));
    }
    Ok(())
}

/// Number of distinct community ids used.
pub fn community_count(membership: &[VertexId]) -> usize {
    if membership.is_empty() {
        return 0;
    }
    let max = *membership.iter().max().unwrap() as usize;
    let mut seen = vec![false; max + 1];
    for &c in membership {
        seen[c as usize] = true;
    }
    seen.into_iter().filter(|&s| s).count()
}

/// Sizes of each community, indexed by community id (gaps appear as 0).
pub fn community_sizes(membership: &[VertexId]) -> Vec<usize> {
    let max = membership
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut sizes = vec![0usize; max];
    for &c in membership {
        sizes[c as usize] += 1;
    }
    sizes
}

/// Summary statistics of the community size distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeStats {
    /// Number of non-empty communities.
    pub count: usize,
    /// Smallest community.
    pub min: usize,
    /// Largest community.
    pub max: usize,
    /// Mean size.
    pub mean: f64,
    /// Median size.
    pub median: usize,
}

/// Computes [`SizeStats`] over the non-empty communities. Returns `None`
/// for an empty membership.
pub fn size_stats(membership: &[VertexId]) -> Option<SizeStats> {
    let mut sizes: Vec<usize> = community_sizes(membership)
        .into_iter()
        .filter(|&s| s > 0)
        .collect();
    if sizes.is_empty() {
        return None;
    }
    sizes.sort_unstable();
    let count = sizes.len();
    Some(SizeStats {
        count,
        min: sizes[0],
        max: *sizes.last().unwrap(),
        mean: membership.len() as f64 / count as f64,
        median: sizes[count / 2],
    })
}

/// Fraction of vertices whose community holds only themselves.
pub fn singleton_fraction(membership: &[VertexId]) -> f64 {
    if membership.is_empty() {
        return 0.0;
    }
    let sizes = community_sizes(membership);
    let singles: usize = membership
        .iter()
        .filter(|&&c| sizes[c as usize] == 1)
        .count();
    singles as f64 / membership.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_good_membership() {
        assert!(validate_membership(&[0, 1, 0], 3).is_ok());
    }

    #[test]
    fn validate_rejects_bad_length_and_range() {
        assert!(validate_membership(&[0, 1], 3).is_err());
        let err = validate_membership(&[0, 5, 0], 3).unwrap_err();
        assert!(err.contains("vertex 1"), "{err}");
    }

    #[test]
    fn count_and_sizes() {
        let mem = [0, 2, 2, 0, 4];
        assert_eq!(community_count(&mem), 3);
        assert_eq!(community_sizes(&mem), vec![2, 0, 2, 0, 1]);
        assert_eq!(community_count(&[]), 0);
        assert_eq!(community_sizes(&[]), Vec::<usize>::new());
    }

    #[test]
    fn size_stats_summary() {
        // Communities: {0: 3 vertices, 2: 2, 7: 1}.
        let mem = [0, 0, 0, 2, 2, 7];
        let stats = size_stats(&mem).unwrap();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 3);
        assert!((stats.mean - 2.0).abs() < 1e-12);
        assert_eq!(stats.median, 2);
        assert!(size_stats(&[]).is_none());
    }

    #[test]
    fn singleton_fraction_counts() {
        assert_eq!(singleton_fraction(&[0, 0, 1, 2]), 0.5);
        assert_eq!(singleton_fraction(&[]), 0.0);
        assert_eq!(singleton_fraction(&[0, 1, 2]), 1.0);
    }
}
