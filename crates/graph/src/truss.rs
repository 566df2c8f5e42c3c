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
//! The peeling is the standard bucket-queue truss decomposition, giving an
//! `O(δ·m)`-style running time (`O(Σ_e min(deg u, deg v))` for the support
//! updates).

use crate::graph::{Graph, VertexId};
use crate::triangles::{edge_supports, EdgeId, EdgeIndex};

/// The truss-based edge ordering of a graph.
#[derive(Clone, Debug)]
pub struct TrussOrdering {
    /// The edge index assigning dense ids to the undirected edges.
    pub index: EdgeIndex,
    /// Edge ids in peeling order (first removed first).
    pub order: Vec<EdgeId>,
    /// `position[e]` = index of edge `e` in [`TrussOrdering::order`].
    pub position: Vec<usize>,
    /// Remaining support of each edge at the moment it was removed.
    pub peel_support: Vec<u32>,
    /// τ: the maximum `peel_support` over all edges (0 for triangle-free graphs).
    pub tau: usize,
}

impl TrussOrdering {
    /// Endpoints of the `i`-th edge in peeling order.
    pub fn edge_at(&self, i: usize) -> (VertexId, VertexId) {
        self.index.endpoints(self.order[i])
    }

    /// Whether edge `a` is peeled before edge `b`.
    pub fn precedes(&self, a: EdgeId, b: EdgeId) -> bool {
        self.position[a as usize] < self.position[b as usize]
    }

    /// Number of edges in the ordering.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the graph had no edges.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Computes the truss-based edge ordering and the truss parameter τ of `g`.
pub fn truss_ordering(g: &Graph) -> TrussOrdering {
    let (index, mut support) = edge_supports(g);
    let m = index.len();
    let max_sup = support.iter().copied().max().unwrap_or(0) as usize;

    // Bucket queue keyed by current support; entries can be stale.
    let mut buckets: Vec<Vec<EdgeId>> = vec![Vec::new(); max_sup + 1];
    for e in 0..m {
        buckets[support[e] as usize].push(e as EdgeId);
    }

    let mut alive = vec![true; m];
    let mut order = Vec::with_capacity(m);
    let mut position = vec![0usize; m];
    let mut peel_support = vec![0u32; m];
    let mut tau = 0usize;
    let mut current = 0usize;
    let mut buf = Vec::new();

    for step in 0..m {
        let e = loop {
            if current > max_sup {
                unreachable!("support bucket queue exhausted before all edges were peeled");
            }
            match buckets[current].pop() {
                Some(e) if alive[e as usize] && support[e as usize] as usize == current => break e,
                Some(_) => continue,
                None => current += 1,
            }
        };

        alive[e as usize] = false;
        peel_support[e as usize] = support[e as usize];
        tau = tau.max(support[e as usize] as usize);
        position[e as usize] = step;
        order.push(e);

        // Every triangle (u, v, w) through e = (u, v) loses this edge: decrement
        // the supports of (u, w) and (v, w) if both are still alive.
        let (u, v) = index.endpoints(e);
        g.common_neighbors_into(u, v, &mut buf);
        for &w in &buf {
            let uw = index.edge_id(u, w).expect("triangle edge (u,w) must exist");
            let vw = index.edge_id(v, w).expect("triangle edge (v,w) must exist");
            if alive[uw as usize] && alive[vw as usize] {
                for &f in &[uw, vw] {
                    let fi = f as usize;
                    if support[fi] > 0 {
                        support[fi] -= 1;
                        buckets[support[fi] as usize].push(f);
                        if (support[fi] as usize) < current {
                            current = support[fi] as usize;
                        }
                    }
                }
            }
        }
    }

    TrussOrdering {
        index,
        order,
        position,
        peel_support,
        tau,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degeneracy::degeneracy;

    #[test]
    fn edgeless_graph_has_empty_ordering() {
        let g = Graph::empty(4);
        let t = truss_ordering(&g);
        assert!(t.is_empty());
        assert_eq!(t.tau, 0);
    }

    #[test]
    fn triangle_free_graph_has_tau_zero() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let t = truss_ordering(&g);
        assert_eq!(t.tau, 0);
        assert_eq!(t.len(), 6);
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
        let t = truss_ordering(&g);
        assert_eq!(t.len(), 15);
        let mut seen = vec![false; 15];
        for (i, &e) in t.order.iter().enumerate() {
            assert!(!seen[e as usize]);
            seen[e as usize] = true;
            assert_eq!(t.position[e as usize], i);
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn peel_support_bounds_later_common_neighbors() {
        // Structural property used by the paper: for each edge e, the number of
        // common neighbours w of its endpoints such that both triangle edges are
        // peeled after e is at most peel_support[e] <= tau.
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
        let t = truss_ordering(&g);
        let mut buf = Vec::new();
        for i in 0..t.len() {
            let e = t.order[i];
            let (u, v) = t.index.endpoints(e);
            g.common_neighbors_into(u, v, &mut buf);
            let later = buf
                .iter()
                .filter(|&&w| {
                    let uw = t.index.edge_id(u, w).unwrap();
                    let vw = t.index.edge_id(v, w).unwrap();
                    t.position[uw as usize] > i && t.position[vw as usize] > i
                })
                .count();
            assert!(later <= t.peel_support[e as usize] as usize);
            assert!(later <= t.tau);
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
        let e45 = t.index.edge_id(4, 5).unwrap();
        assert!(t.peel_support[e45 as usize] <= 1);
    }

    #[test]
    fn precedes_is_consistent_with_positions() {
        let g = Graph::complete(4);
        let t = truss_ordering(&g);
        let first = t.order[0];
        let last = *t.order.last().unwrap();
        assert!(t.precedes(first, last));
        assert!(!t.precedes(last, first));
    }
}
