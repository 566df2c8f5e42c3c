//! Triangle counting and per-edge support.
//!
//! The truss decomposition (and hence the truss-based edge ordering of the
//! paper) is driven by the *support* of an edge `(u, v)`: the number of
//! common neighbours of `u` and `v`, i.e. the number of triangles the edge
//! participates in. An edge is identified by its CSR slots
//! ([`Graph::slot`]). This module provides
//!
//! * [`edge_supports`] — per-edge supports by slot. Each vertex marks its
//!   neighbour list once; each of its edges then counts the marked entries
//!   of the other endpoint's list, the endpoint of smaller degree, without a
//!   branch per entry,
//! * [`triangle_count`] — the global triangle count, a third of the support
//!   sum.

use crate::graph::Graph;

/// Computes the support (number of common neighbours) of every edge,
/// indexed by CSR slot: both slots of an edge hold its support.
pub fn edge_supports(g: &Graph) -> Vec<u32> {
    supports(g, &g.reverse_slots(), &mut vec![u32::MAX; g.n()])
}

/// [`edge_supports`] over precomputed [`Graph::reverse_slots`]. `mark` has
/// `g.n()` entries, all `u32::MAX`, and is left that way.
pub(crate) fn supports(g: &Graph, reverse: &[u32], mark: &mut [u32]) -> Vec<u32> {
    let (offsets, adjacency) = (g.csr_offsets(), g.csr_adjacency());
    let mut support = vec![0u32; adjacency.len()];
    for u in g.vertices() {
        let slots = offsets[u as usize]..offsets[u as usize + 1];
        let key = (slots.len(), u);
        for &w in &adjacency[slots.clone()] {
            mark[w as usize] = 0;
        }
        // Each edge is counted once, at its endpoint of larger (degree, id),
        // by scanning the other endpoint's shorter list.
        for s in slots.clone() {
            let v = adjacency[s];
            if (g.degree(v), v) < key {
                let count: u32 = g
                    .neighbors(v)
                    .iter()
                    .map(|&w| u32::from(mark[w as usize] != u32::MAX))
                    .sum();
                support[s] = count;
                support[reverse[s] as usize] = count;
            }
        }
        for &w in &adjacency[slots] {
            mark[w as usize] = u32::MAX;
        }
    }
    support
}

/// Counts the triangles of `g`: each triangle adds one to the support of
/// each of its three edges, at both slots.
pub fn triangle_count(g: &Graph) -> u64 {
    edge_supports(g).iter().map(|&s| u64::from(s)).sum::<u64>() / 6
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
        // Vertex triples by brute force: 012, 234, 245, 456.
        let n = g.n() as u32;
        let triples = (0..n)
            .flat_map(|a| (a + 1..n).flat_map(move |b| (b + 1..n).map(move |c| (a, b, c))))
            .filter(|&(a, b, c)| g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c))
            .count() as u64;
        assert_eq!(triples, 4);
        assert_eq!(sum, 3 * triples);
        assert_eq!(triangle_count(&g), triples);
    }
}
