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
use crate::triangles::{EdgeId, EdgeIndex};
use crate::truss::truss_ordering;

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

/// An edge ordering together with the edge index it refers to.
#[derive(Clone, Debug)]
pub struct EdgeOrdering {
    /// Dense edge numbering.
    pub index: EdgeIndex,
    /// Edge ids in branching order.
    pub order: Vec<EdgeId>,
    /// `position[e]` = rank of edge `e` in [`EdgeOrdering::order`].
    pub position: Vec<usize>,
}

impl EdgeOrdering {
    /// Endpoints of the `i`-th edge in the ordering.
    pub fn edge_at(&self, i: usize) -> (VertexId, VertexId) {
        self.index.endpoints(self.order[i])
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Computes an edge ordering of `g` of the requested kind.
pub fn edge_ordering(g: &Graph, kind: EdgeOrderingKind) -> EdgeOrdering {
    match kind {
        EdgeOrderingKind::Truss => {
            let t = truss_ordering(g);
            EdgeOrdering {
                index: t.index,
                order: t.order,
                position: t.position,
            }
        }
        EdgeOrderingKind::DegeneracyLex => {
            let index = EdgeIndex::new(g);
            let deg_pos = degeneracy_ordering(g).position;
            order_by_key(index, |&(u, v)| {
                let (pu, pv) = (deg_pos[u as usize], deg_pos[v as usize]);
                if pu <= pv {
                    (pu, pv)
                } else {
                    (pv, pu)
                }
            })
        }
        EdgeOrderingKind::MinDegree => {
            let index = EdgeIndex::new(g);
            order_by_key(index, |&(u, v)| {
                (g.degree(u).min(g.degree(v)), g.degree(u).max(g.degree(v)))
            })
        }
    }
}

fn order_by_key<K, F>(index: EdgeIndex, key: F) -> EdgeOrdering
where
    K: Ord,
    F: Fn(&(VertexId, VertexId)) -> K,
{
    let m = index.len();
    let mut order: Vec<EdgeId> = (0..m as EdgeId).collect();
    order.sort_by_key(|&e| key(&index.endpoints(e)));
    let mut position = vec![0usize; m];
    for (i, &e) in order.iter().enumerate() {
        position[e as usize] = i;
    }
    EdgeOrdering {
        index,
        order,
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
        assert_eq!(eo.len(), g.m());
        for (i, &e) in eo.order.iter().enumerate() {
            assert_eq!(eo.position[e as usize], i);
        }
    }

    #[test]
    fn min_degree_edge_ordering_is_sorted_by_min_degree() {
        let g = sample();
        let eo = edge_ordering(&g, EdgeOrderingKind::MinDegree);
        let keys: Vec<usize> = (0..eo.len())
            .map(|i| {
                let (u, v) = eo.edge_at(i);
                g.degree(u).min(g.degree(v))
            })
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
        assert_eq!(pos, (0..g.m()).collect::<Vec<_>>());
        // The first edge's earlier endpoint must be among the earliest peeled vertices.
        let deg = degeneracy_ordering(&g);
        let (u, v) = eo.edge_at(0);
        let first_pos = deg.position[u as usize].min(deg.position[v as usize]);
        for i in 1..eo.len() {
            let (a, b) = eo.edge_at(i);
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
            assert!(eo.is_empty());
            assert_eq!(eo.len(), 0);
        }
    }
}
