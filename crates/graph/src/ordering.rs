//! Vertex and edge orderings used by the branching frameworks.
//!
//! The paper's baselines differ (among other things) in the ordering used at
//! the initial branch:
//!
//! * vertex-oriented branching uses the **degeneracy ordering** (`BK_Degen`)
//!   or the **degree ordering** (`BK_Degree`),
//! * edge-oriented branching uses the **truss-based edge ordering** (the
//!   proposed default), or the two Table-VI baselines: edges ordered
//!   lexicographically by the degeneracy positions of their endpoints
//!   (`HBBMC-dgn`) and edges ordered by the minimum degree of their endpoints
//!   (`HBBMC-mdg`).

use crate::degeneracy::degeneracy_ordering;
use crate::graph::{Graph, VertexId};
use crate::truss::peel;

/// Vertex orderings used for the initial vertex-oriented branching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VertexOrderingKind {
    /// Natural order `0, 1, …, n-1`.
    Natural,
    /// Non-decreasing degree order.
    Degree,
    /// Degeneracy (minimum-degree peeling) order.
    Degeneracy,
}

/// Edge orderings used for the initial edge-oriented branching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOrderingKind {
    /// Truss-based ordering π_τ (the paper's default, bounds branches by τ).
    Truss,
    /// Lexicographic ordering by the degeneracy positions of the endpoints
    /// (the `HBBMC-dgn` baseline of Table VI).
    DegeneracyLex,
    /// Non-decreasing order of `min(deg u, deg v)` (the `HBBMC-mdg` baseline
    /// of Table VI).
    MinDegree,
}

/// Computes a vertex ordering of `g`. Returns the vertices in order.
pub fn vertex_ordering(g: &Graph, kind: VertexOrderingKind) -> Vec<VertexId> {
    match kind {
        VertexOrderingKind::Natural => (0..g.n() as VertexId).collect(),
        VertexOrderingKind::Degree => {
            let mut vs: Vec<VertexId> = (0..g.n() as VertexId).collect();
            vs.sort_by_key(|&v| (g.degree(v), v));
            vs
        }
        VertexOrderingKind::Degeneracy => degeneracy_ordering(g).order,
    }
}

/// An edge ordering: the edges in branching order, and the rank of every
/// edge stored at both of its CSR slots ([`Graph::slot`]).
#[derive(Clone, Debug)]
pub struct EdgeOrdering {
    /// Edges `(u, v)` with `u < v`, in branching order.
    pub order: Vec<(VertexId, VertexId)>,
    /// `position[s]` = rank in [`EdgeOrdering::order`] of the edge at CSR
    /// slot `s`; both slots of an edge hold the same rank.
    pub position: Vec<u32>,
}

impl EdgeOrdering {
    /// Eq. (2)'s candidate rule for the `rank`-th edge `(u, v)`: calls
    /// `f(w, later)` for every common neighbour `w` of `u` and `v`, in
    /// increasing order, where `later` says whether both triangle edges
    /// `(u, w)` and `(v, w)` come after `(u, v)` in the ordering.
    #[inline]
    pub fn for_each_common_neighbor<F>(&self, g: &Graph, rank: usize, mut f: F)
    where
        F: FnMut(VertexId, bool),
    {
        let (u, v) = self.order[rank];
        let rank = rank as u32;
        g.for_each_common_neighbor(u, v, |w, uw, vw| {
            f(w, self.position[uw] > rank && self.position[vw] > rank)
        });
    }
}

/// Computes an edge ordering of `g` of the requested kind.
pub fn edge_ordering(g: &Graph, kind: EdgeOrderingKind) -> EdgeOrdering {
    match kind {
        EdgeOrderingKind::Truss => {
            let (order, position, _) = peel(g);
            EdgeOrdering { order, position }
        }
        EdgeOrderingKind::DegeneracyLex => {
            let deg_pos = degeneracy_ordering(g).position;
            order_by_key(g, |u, v| {
                let (pu, pv) = (deg_pos[u as usize], deg_pos[v as usize]);
                if pu <= pv {
                    (pu, pv)
                } else {
                    (pv, pu)
                }
            })
        }
        EdgeOrderingKind::MinDegree => order_by_key(g, |u, v| {
            (g.degree(u).min(g.degree(v)), g.degree(u).max(g.degree(v)))
        }),
    }
}

/// Orders the edges by `key(u, v)`, ties in [`Graph::edges`] order.
fn order_by_key<K, F>(g: &Graph, key: F) -> EdgeOrdering
where
    K: Ord,
    F: Fn(VertexId, VertexId) -> K,
{
    let adjacency = g.csr_adjacency();
    let reverse = g.reverse_slots();
    // Each edge by its smaller slot, in increasing slot order: the order of
    // `Graph::edges`.
    let mut slots: Vec<u32> = (0..reverse.len() as u32)
        .filter(|&s| s < reverse[s as usize])
        .collect();
    let endpoints = |s: u32| {
        (
            adjacency[reverse[s as usize] as usize],
            adjacency[s as usize],
        )
    };
    slots.sort_by_key(|&s| {
        let (u, v) = endpoints(s);
        key(u, v)
    });
    let mut position = vec![0u32; adjacency.len()];
    for (rank, &s) in slots.iter().enumerate() {
        position[s as usize] = rank as u32;
        position[reverse[s as usize] as usize] = rank as u32;
    }
    EdgeOrdering {
        order: slots.into_iter().map(endpoints).collect(),
        position,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        // K4 on {0,1,2,3} plus a tail 3-4-5.
        Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn natural_vertex_ordering() {
        let g = sample();
        assert_eq!(
            vertex_ordering(&g, VertexOrderingKind::Natural),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn degree_vertex_ordering_is_nondecreasing() {
        let g = sample();
        let ord = vertex_ordering(&g, VertexOrderingKind::Degree);
        for w in ord.windows(2) {
            assert!(g.degree(w[0]) <= g.degree(w[1]));
        }
        assert_eq!(ord.len(), 6);
    }

    #[test]
    fn degeneracy_vertex_ordering_is_permutation() {
        let g = sample();
        let mut ord = vertex_ordering(&g, VertexOrderingKind::Degeneracy);
        ord.sort_unstable();
        assert_eq!(ord, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn truss_edge_ordering_round_trips_positions() {
        let g = sample();
        let eo = edge_ordering(&g, EdgeOrderingKind::Truss);
        assert_eq!(eo.order.len(), g.m());
        assert_eq!(eo.position.len(), 2 * g.m());
        for (rank, &(u, v)) in eo.order.iter().enumerate() {
            assert!(u < v);
            assert_eq!(eo.position[g.slot(u, v).unwrap()], rank as u32);
            assert_eq!(eo.position[g.slot(v, u).unwrap()], rank as u32);
        }
    }

    #[test]
    fn edge_orders_are_pinned() {
        // Support ties (the K4 edges, the triangles 3-4-5 and 4-5-6) and
        // degree ties (0 and 1; 4, 5 and 6) make every kind pick among equal
        // keys; these are the orders all three kinds have always produced.
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (4, 6),
                (5, 6),
                (2, 6),
            ],
        )
        .unwrap();
        let order = |kind| edge_ordering(&g, kind).order;
        assert_eq!(
            order(EdgeOrderingKind::Truss),
            [
                (2, 6),
                (5, 6),
                (4, 6),
                (4, 5),
                (3, 5),
                (3, 4),
                (2, 3),
                (1, 3),
                (0, 3),
                (0, 1),
                (1, 2),
                (0, 2)
            ]
        );
        assert_eq!(
            order(EdgeOrderingKind::DegeneracyLex),
            [
                (5, 6),
                (4, 6),
                (2, 6),
                (4, 5),
                (3, 5),
                (3, 4),
                (2, 3),
                (1, 3),
                (0, 3),
                (1, 2),
                (0, 2),
                (0, 1)
            ]
        );
        assert_eq!(
            order(EdgeOrderingKind::MinDegree),
            [
                (0, 1),
                (4, 5),
                (4, 6),
                (5, 6),
                (0, 2),
                (1, 2),
                (2, 6),
                (0, 3),
                (1, 3),
                (3, 4),
                (3, 5),
                (2, 3)
            ]
        );
    }

    #[test]
    fn min_degree_edge_ordering_is_sorted_by_min_degree() {
        let g = sample();
        let eo = edge_ordering(&g, EdgeOrderingKind::MinDegree);
        let keys: Vec<usize> = eo
            .order
            .iter()
            .map(|&(u, v)| g.degree(u).min(g.degree(v)))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn degeneracy_lex_edge_ordering_orders_tail_before_clique_or_consistently() {
        let g = sample();
        let eo = edge_ordering(&g, EdgeOrderingKind::DegeneracyLex);
        // Positions must be a permutation.
        let mut pos = eo.position.clone();
        pos.sort_unstable();
        pos.dedup();
        assert_eq!(pos, (0..g.m() as u32).collect::<Vec<_>>());
        // The first edge's earlier endpoint must be among the earliest peeled vertices.
        let deg = degeneracy_ordering(&g);
        let (u, v) = eo.order[0];
        let first_pos = deg.position[u as usize].min(deg.position[v as usize]);
        for &(a, b) in &eo.order[1..] {
            let p = deg.position[a as usize].min(deg.position[b as usize]);
            assert!(first_pos <= p);
        }
    }

    #[test]
    fn edge_ordering_on_edgeless_graph_is_empty() {
        let g = Graph::empty(4);
        for kind in [
            EdgeOrderingKind::Truss,
            EdgeOrderingKind::DegeneracyLex,
            EdgeOrderingKind::MinDegree,
        ] {
            let eo = edge_ordering(&g, kind);
            assert!(eo.order.is_empty());
            assert!(eo.position.is_empty());
        }
    }
}
