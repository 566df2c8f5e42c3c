//! Graph-reduction (GR) preprocessing.
//!
//! Deng, Zheng & Cheng (VLDB'24) accelerate every Bron–Kerbosch variant by
//! eliminating branches rooted at low-degree vertices and reporting the
//! maximal cliques that involve them directly. The paper treats GR as
//! orthogonal to the branching framework and enables it for every baseline
//! (`RRef`, `RDegen`, `RRcd`, `RFac`) as well as for `HBBMC++`; we do the same.
//!
//! The reduction implemented here removes every **simplicial** vertex of the
//! input graph — a vertex whose closed neighbourhood `N[v]` induces a clique.
//! For such a vertex `N[v]` is the unique maximal clique containing `v`, so it
//! can be reported immediately (deduplicated across simplicial vertices
//! sharing the same closed neighbourhood) and `v` never needs to seed a
//! branch. Vertices of degree 0 and 1, the primary target of the original
//! reduction rules, are always simplicial. During the main enumeration the
//! removed vertices act as permanent members of the exclusion set of every
//! branch they are adjacent to, which preserves maximality checking against
//! the *original* graph.

use mce_graph::{Graph, VertexId};

/// Result of the graph-reduction preprocessing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Reduction {
    /// `removed[v]` is true when `v` was eliminated by the reduction.
    pub removed: Vec<bool>,
    /// Maximal cliques reported directly by the reduction (each sorted).
    pub cliques: Vec<Vec<VertexId>>,
}

impl Reduction {
    /// A no-op reduction for graphs where GR is disabled.
    pub fn disabled(n: usize) -> Self {
        Reduction {
            removed: vec![false; n],
            cliques: Vec::new(),
        }
    }

    /// Number of removed vertices.
    pub fn removed_count(&self) -> usize {
        self.removed.iter().filter(|&&r| r).count()
    }
}

/// Runs the reduction on `g`.
pub(crate) fn reduce(g: &Graph) -> Reduction {
    let n = g.n();
    let mut simplicial = vec![false; n];
    for v in 0..n as VertexId {
        simplicial[v as usize] = g.is_clique(g.neighbors(v));
    }

    let mut cliques = Vec::new();
    for v in 0..n as VertexId {
        if !simplicial[v as usize] {
            continue;
        }
        // Report N[v] only for the smallest simplicial vertex of the clique:
        // two adjacent simplicial vertices necessarily share the same closed
        // neighbourhood.
        let dominated = g
            .neighbors(v)
            .iter()
            .any(|&u| u < v && simplicial[u as usize]);
        if dominated {
            continue;
        }
        let mut clique = g.neighbors(v).to_vec();
        clique.push(v);
        clique.sort_unstable();
        cliques.push(clique);
    }

    Reduction {
        removed: simplicial,
        cliques,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_and_pendant_vertices_are_reduced() {
        // 0 isolated; 1-2 edge; triangle 3-4-5 with pendant 6 on 3.
        let g = Graph::from_edges(7, [(1, 2), (3, 4), (4, 5), (3, 5), (3, 6)]).unwrap();
        let r = reduce(&g);
        assert!(r.removed[0], "isolated vertex is simplicial");
        assert!(
            r.removed[1] && r.removed[2],
            "degree-1 endpoints are simplicial"
        );
        assert!(r.removed[6], "pendant vertex is simplicial");
        assert!(
            r.removed[4] && r.removed[5],
            "triangle corners not shared with others"
        );
        assert!(
            !r.removed[3],
            "vertex 3 has non-adjacent neighbours 4/5 vs 6"
        );
        let mut cliques = r.cliques.clone();
        cliques.sort();
        assert!(cliques.contains(&vec![0]));
        assert!(cliques.contains(&vec![1, 2]));
        assert!(cliques.contains(&vec![3, 4, 5]));
        assert!(cliques.contains(&vec![3, 6]));
        assert_eq!(cliques.len(), 4);
    }

    #[test]
    fn clique_graph_reports_single_clique() {
        let g = Graph::complete(5);
        let r = reduce(&g);
        assert_eq!(r.removed_count(), 5);
        assert_eq!(r.cliques, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn cycle_has_no_simplicial_vertices() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let r = reduce(&g);
        assert_eq!(r.removed_count(), 0);
        assert!(r.cliques.is_empty());
    }

    #[test]
    fn reported_cliques_are_maximal_in_original_graph() {
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
            ],
        )
        .unwrap();
        let r = reduce(&g);
        for clique in &r.cliques {
            assert!(g.is_clique(clique));
            // No outside vertex adjacent to all members.
            for v in 0..g.n() as VertexId {
                if clique.contains(&v) {
                    continue;
                }
                assert!(
                    !clique.iter().all(|&c| g.has_edge(c, v)),
                    "clique {clique:?} extendable by {v}"
                );
            }
        }
    }

    #[test]
    fn disabled_reduction_removes_nothing() {
        let r = Reduction::disabled(4);
        assert_eq!(r.removed_count(), 0);
        assert!(r.cliques.is_empty());
        assert_eq!(r.removed.len(), 4);
    }

    #[test]
    fn duplicate_closed_neighborhoods_reported_once() {
        // Two disjoint triangles: each triangle reported exactly once.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let r = reduce(&g);
        assert_eq!(r.cliques.len(), 2);
        assert_eq!(r.removed_count(), 6);
    }
}
