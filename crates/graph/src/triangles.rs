//! Triangle counting and per-edge support.
//!
//! The truss decomposition (and hence the truss-based edge ordering of the
//! paper) is driven by the *support* of an edge `(u, v)`: the number of
//! common neighbours of `u` and `v`, i.e. the number of triangles the edge
//! participates in. An edge is identified by its CSR slots
//! ([`Graph::slot`]). This module provides
//!
//! * [`edge_supports`] — per-edge supports by slot, one linear merge of the
//!   two neighbour lists per edge (`O(deg u + deg v)`),
//! * [`triangle_count`] — the global triangle count.

use crate::graph::{Graph, VertexId};

/// Computes the support (number of common neighbours) of every edge,
/// indexed by CSR slot: both slots of an edge hold its support.
pub fn edge_supports(g: &Graph) -> Vec<u32> {
    supports(g, &g.reverse_slots())
}

/// [`edge_supports`] over precomputed [`Graph::reverse_slots`].
pub(crate) fn supports(g: &Graph, reverse: &[u32]) -> Vec<u32> {
    let adjacency = g.csr_adjacency();
    let mut support = vec![0u32; adjacency.len()];
    for (s, &r) in reverse.iter().enumerate() {
        let r = r as usize;
        if s < r {
            let mut count = 0u32;
            g.for_each_common_neighbor(adjacency[r], adjacency[s], |_, _, _| count += 1);
            support[s] = count;
            support[r] = count;
        }
    }
    support
}

/// Counts the triangles of `g`.
///
/// Uses forward-neighbourhood intersection over a degree ordering so dense
/// graphs do not pay a quadratic factor per high-degree vertex.
pub fn triangle_count(g: &Graph) -> u64 {
    let n = g.n();
    // Rank vertices by (degree, id); forward edges go from lower to higher rank.
    let mut rank = vec![0u32; n];
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_unstable_by_key(|&v| (g.degree(v), v));
    for (r, &v) in by_degree.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    let forward: Vec<Vec<VertexId>> = (0..n as VertexId)
        .map(|u| {
            let mut f: Vec<VertexId> = g
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&v| rank[v as usize] > rank[u as usize])
                .collect();
            f.sort_unstable();
            f
        })
        .collect();
    let mut count = 0u64;
    for u in 0..n {
        for &v in &forward[u] {
            count += sorted_intersection_len(&forward[u], &forward[v as usize]) as u64;
        }
    }
    count
}

fn sorted_intersection_len(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_tail() -> Graph {
        // Triangle 0-1-2, tail 2-3.
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn supports_of_triangle_with_tail() {
        let g = triangle_with_tail();
        let sup = edge_supports(&g);
        let s = |u, v| sup[g.slot(u, v).unwrap()];
        assert_eq!(s(0, 1), 1);
        assert_eq!(s(1, 0), 1);
        assert_eq!(s(0, 2), 1);
        assert_eq!(s(1, 2), 1);
        assert_eq!(s(2, 3), 0);
        assert_eq!(s(3, 2), 0);
    }

    #[test]
    fn triangle_count_small_graphs() {
        assert_eq!(triangle_count(&Graph::empty(5)), 0);
        assert_eq!(triangle_count(&Graph::complete(3)), 1);
        assert_eq!(triangle_count(&Graph::complete(5)), 10);
        assert_eq!(triangle_count(&triangle_with_tail()), 1);
        let c4 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(triangle_count(&c4), 0);
    }

    #[test]
    fn support_sum_equals_three_times_triangles() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (4, 6),
                (2, 5),
            ],
        )
        .unwrap();
        let sup = edge_supports(&g);
        let sum: u64 = g
            .edges()
            .map(|(u, v)| sup[g.slot(u, v).unwrap()] as u64)
            .sum();
        assert_eq!(sum, 3 * triangle_count(&g));
    }
}
