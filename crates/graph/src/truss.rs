//! Truss decomposition and the truss-based edge ordering π_τ.
//!
//! The edge-oriented branching framework of the paper orders the edges of the
//! initial branch with the *truss-based edge ordering* (Wang, Yu & Long,
//! SIGMOD'24): repeatedly remove from the remaining graph the edge whose two
//! endpoints have the fewest common neighbours (smallest remaining support)
//! and append it to the ordering. The maximum support observed at removal
//! time, written τ in the paper, bounds the size of every candidate subgraph
//! produced by edge-oriented branching; τ < δ always holds (strictly, in the
//! sense that τ ≤ δ − 1 on any graph with at least one edge).
//!
//! The peeling is the standard bucket-queue truss decomposition over CSR
//! slots: computing the supports and peeling each edge both take one linear
//! merge of its endpoints' neighbour lists, `O(deg u + deg v)` per edge, and
//! the merge yields the slots of both triangle edges, so nothing is looked
//! up.

use crate::graph::{Graph, VertexId};
use crate::triangles::supports;

/// The truss-based edge ordering of a graph.
#[derive(Clone, Debug)]
pub struct TrussOrdering {
    /// Edges `(u, v)` with `u < v`, in peeling order (first removed first).
    pub edges: Vec<(VertexId, VertexId)>,
    /// τ: the largest support an edge has when it is peeled (0 for
    /// triangle-free graphs).
    pub tau: usize,
}

/// Computes the truss-based edge ordering and the truss parameter τ of `g`.
pub fn truss_ordering(g: &Graph) -> TrussOrdering {
    let (edges, _, tau) = peel(g);
    TrussOrdering { edges, tau }
}

/// The peel behind [`truss_ordering`]: the edges in peeling order, each
/// edge's peeling step stored at both of its CSR slots, and τ.
pub(crate) fn peel(g: &Graph) -> (Vec<(VertexId, VertexId)>, Vec<u32>, usize) {
    /// Step of an edge that is not peeled yet.
    const ALIVE: u32 = u32::MAX;
    let adjacency = g.csr_adjacency();
    let reverse = g.reverse_slots();
    // The peel keeps each edge's live support at its smaller slot, the one
    // in its smaller endpoint's list.
    let mut support = supports(g, &reverse);
    let max_sup = support.iter().copied().max().unwrap_or(0) as usize;

    // Bucket queue of smaller slots keyed by current support; entries can be
    // stale.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_sup + 1];
    for (s, &r) in reverse.iter().enumerate() {
        if (s as u32) < r {
            buckets[support[s] as usize].push(s as u32);
        }
    }

    let mut step_of = vec![ALIVE; adjacency.len()];
    let mut order = Vec::with_capacity(g.m());
    let mut tau = 0usize;
    let mut current = 0usize;

    for step in 0..g.m() as u32 {
        let s = loop {
            if current > max_sup {
                unreachable!("support bucket queue exhausted before all edges were peeled");
            }
            match buckets[current].pop() {
                Some(s)
                    if step_of[s as usize] == ALIVE && support[s as usize] as usize == current =>
                {
                    break s as usize
                }
                Some(_) => continue,
                None => current += 1,
            }
        };

        let r = reverse[s] as usize;
        step_of[s] = step;
        step_of[r] = step;
        tau = tau.max(support[s] as usize);
        let (u, v) = (adjacency[r], adjacency[s]);
        order.push((u, v));

        // Every triangle (u, v, w) through e = (u, v) loses this edge: decrement
        // the supports of (u, w) and (v, w) if both are still alive.
        g.for_each_common_neighbor(u, v, |_, uw, vw| {
            if step_of[uw] == ALIVE && step_of[vw] == ALIVE {
                for f in [uw, vw] {
                    let f = f.min(reverse[f] as usize);
                    if support[f] > 0 {
                        support[f] -= 1;
                        buckets[support[f] as usize].push(f as u32);
                        current = current.min(support[f] as usize);
                    }
                }
            }
        });
    }

    (order, step_of, tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degeneracy::degeneracy;
    use crate::ordering::{edge_ordering, EdgeOrderingKind};

    /// For each edge in peeling order, how many of its common neighbours
    /// close a triangle whose other two edges are both peeled later: the
    /// edge's support when it is peeled.
    fn later_common_neighbors(g: &Graph) -> Vec<usize> {
        let eo = edge_ordering(g, EdgeOrderingKind::Truss);
        assert_eq!(eo.order, truss_ordering(g).edges);
        (0..eo.order.len())
            .map(|rank| {
                let mut later = 0;
                eo.for_each_common_neighbor(g, rank, |_, l| later += l as usize);
                later
            })
            .collect()
    }

    #[test]
    fn edgeless_graph_has_empty_ordering() {
        let g = Graph::empty(4);
        let t = truss_ordering(&g);
        assert!(t.edges.is_empty());
        assert_eq!(t.tau, 0);
    }

    #[test]
    fn triangle_free_graph_has_tau_zero() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let t = truss_ordering(&g);
        assert_eq!(t.tau, 0);
        assert_eq!(t.edges.len(), 6);
    }

    #[test]
    fn complete_graph_tau_is_n_minus_two() {
        for n in 3..8 {
            let g = Graph::complete(n);
            assert_eq!(truss_ordering(&g).tau, n - 2, "K_{n}");
        }
    }

    #[test]
    fn tau_is_strictly_less_than_degeneracy_on_graphs_with_edges() {
        let graphs = vec![
            Graph::complete(6),
            Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap(),
            Graph::from_edges(
                7,
                [
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 0),
                    (0, 2),
                    (4, 5),
                    (5, 6),
                    (6, 4),
                ],
            )
            .unwrap(),
        ];
        for g in graphs {
            let (tau, delta) = (truss_ordering(&g).tau, degeneracy(&g));
            assert!(tau < delta.max(1) || delta == 0);
            assert!(tau <= delta);
        }
    }

    #[test]
    fn ordering_is_a_permutation() {
        let g = Graph::complete(6);
        let mut edges = truss_ordering(&g).edges;
        assert_eq!(edges.len(), 15);
        edges.sort_unstable();
        assert_eq!(edges, g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn tau_is_the_largest_count_of_later_common_neighbors() {
        // The support an edge is peeled at counts the common neighbours w
        // whose triangle edges (u, w) and (v, w) are both peeled later, so
        // the largest such count is tau.
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (5, 7),
                (4, 6),
            ],
        )
        .unwrap();
        for g in [g, Graph::complete(6), Graph::empty(3)] {
            let later = later_common_neighbors(&g);
            assert_eq!(
                later.iter().copied().max().unwrap_or(0),
                truss_ordering(&g).tau
            );
        }
    }

    #[test]
    fn pendant_triangle_is_peeled_with_low_support() {
        // Two triangles sharing vertex 2; edge (5,6) pendant triangle vs dense K4.
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (2, 4),
                (4, 5),
                (2, 5),
            ],
        )
        .unwrap();
        let t = truss_ordering(&g);
        // K4 on {0,1,2,3} forces tau = 2; pendant triangle edges peel at support <= 1.
        assert_eq!(t.tau, 2);
        let rank45 = t.edges.iter().position(|&e| e == (4, 5)).unwrap();
        assert!(later_common_neighbors(&g)[rank45] <= 1);
    }
}
