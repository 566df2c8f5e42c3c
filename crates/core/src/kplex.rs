//! Tests of the t-plex structure that early termination works on.
//!
//! A branch ends early when its candidate set is a t-plex (t ≤ 3), which
//! [`crate::pivot::plex_condition`] decides on the branch scan. The
//! complement of the candidates then has maximum degree two, and
//! [`crate::early_term::enumerate_plex_branch`] decomposes it into isolated
//! vertices, paths and cycles. These tests check both halves on whole graphs:
//! the plex level, the walked paths and cycles, and the cliques emitted from
//! them.

mod tests {
    use crate::early_term::{enumerate_plex_branch, PlexScratch};
    use crate::local::LocalGraph;
    use crate::pivot::{plex_condition, scan_branch};
    use mce_graph::{BitSet, Graph, VertexId};

    /// The local graph over all of `g`, local ids equal to original ids.
    fn local(g: &Graph) -> LocalGraph {
        LocalGraph::from_vertices(g, &(0..g.n() as VertexId).collect::<Vec<_>>())
    }

    /// Whether `plex_condition` accepts all of `g` as a t-plex.
    fn is_plex(g: &Graph, t: usize) -> bool {
        let n = g.n();
        let scan = scan_branch(&local(g), &BitSet::full(n), &BitSet::with_capacity(n));
        plex_condition(&scan, n, t)
    }

    /// The smallest `t` for which all of `g` is a t-plex; 0 for the empty
    /// graph, which is never terminated early.
    fn plex_level(g: &Graph) -> usize {
        (1..=g.n()).find(|&t| is_plex(g, t)).unwrap_or(0)
    }

    /// The graph on `n` vertices whose complement has exactly the edges
    /// `complement`.
    fn complement_of(n: usize, complement: &[(u32, u32)]) -> Graph {
        Graph::from_edges(n, complement.iter().copied())
            .unwrap()
            .complement()
    }

    /// Runs the emitter with all of `g` as the candidate set: the cliques in
    /// emission order, and the paths then the cycles it walked.
    fn decompose(g: &Graph) -> (Vec<Vec<VertexId>>, Vec<Vec<VertexId>>) {
        let mut buf = PlexScratch::default();
        let mut cliques = Vec::new();
        let count = enumerate_plex_branch(
            &local(g),
            &BitSet::full(g.n()),
            &mut buf,
            &mut Vec::new(),
            &mut |cl| cliques.push(cl.to_vec()),
        );
        assert_eq!(count, cliques.len() as u64);
        let walked = buf.walked().into_iter().map(<[_]>::to_vec).collect();
        (cliques, walked)
    }

    #[test]
    fn plex_level_of_special_graphs() {
        assert_eq!(plex_level(&Graph::empty(0)), 0);
        assert_eq!(plex_level(&Graph::complete(5)), 1);
        assert_eq!(plex_level(&Graph::empty(4)), 4);
        // C5: every vertex misses 2 others plus itself => 3-plex but not 2-plex.
        let c5 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert_eq!(plex_level(&c5), 3);
        assert!(is_plex(&c5, 3));
        assert!(!is_plex(&c5, 2));
    }

    #[test]
    fn clique_detection() {
        // A clique is exactly a 1-plex.
        assert!(is_plex(&Graph::complete(4), 1));
        assert!(is_plex(&Graph::complete(1), 1));
        assert!(!is_plex(&Graph::from_edges(3, [(0, 1)]).unwrap(), 1));
        assert!(!is_plex(&complement_of(4, &[(1, 3)]), 1));
    }

    #[test]
    fn two_plex_complement_is_perfect_matching_plus_isolated() {
        // Paper's Figure 3: the complement is the matching (2,4), (3,5), and
        // 0 and 1 are isolated in it, so they are in every clique.
        let g = complement_of(6, &[(2, 4), (3, 5)]);
        assert_eq!(plex_level(&g), 2);
        let (cliques, walked) = decompose(&g);
        assert_eq!(walked, [vec![2, 4], vec![3, 5]]);
        assert_eq!(
            cliques,
            [
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 5],
                vec![0, 1, 4, 3],
                vec![0, 1, 4, 5]
            ]
        );
    }

    #[test]
    fn three_plex_complement_path_and_cycle() {
        // Paper's Figure 4: the complement has the path 0-1-2 and the
        // triangle 3-4-5, and no isolated vertex.
        let g = complement_of(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]);
        assert_eq!(plex_level(&g), 3);
        let (cliques, walked) = decompose(&g);
        assert_eq!(walked, [vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(
            cliques,
            [
                vec![0, 2, 3],
                vec![0, 2, 4],
                vec![0, 2, 5],
                vec![1, 3],
                vec![1, 4],
                vec![1, 5]
            ]
        );
    }

    #[test]
    fn of_complement_rejects_non_three_plex() {
        // A path graph: its complement has high degree for n >= 6.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        assert!(!is_plex(&g, 3));
        assert_eq!(plex_level(&g), 5);
    }

    #[test]
    fn from_adjacency_rejects_degree_three() {
        // Vertex 0 misses three candidates; every other vertex misses one.
        let g = complement_of(4, &[(0, 1), (0, 2), (0, 3)]);
        assert!(!is_plex(&g, 3));
        assert!(is_plex(&g, 4));
    }

    #[test]
    fn from_adjacency_decomposes_mixed_structure() {
        // Isolated: 0; path: 1-2-3; cycle: 4-5-6-7.
        let g = complement_of(8, &[(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4)]);
        assert_eq!(plex_level(&g), 3);
        let (cliques, walked) = decompose(&g);
        assert_eq!(walked, [vec![1, 2, 3], vec![4, 5, 6, 7]]);
        assert_eq!(
            cliques,
            [
                vec![0, 1, 3, 4, 6],
                vec![0, 1, 3, 5, 7],
                vec![0, 2, 4, 6],
                vec![0, 2, 5, 7]
            ]
        );
    }

    #[test]
    fn paths_list_consecutive_adjacent_vertices() {
        // The complement is the path 2-0-3-1, walked from its smaller end.
        let g = complement_of(4, &[(2, 0), (0, 3), (3, 1)]);
        let (_, walked) = decompose(&g);
        assert_eq!(walked, [vec![1, 3, 0, 2]]);
        for w in walked[0].windows(2) {
            assert!(!g.has_edge(w[0], w[1]), "{w:?} adjacent in the complement");
        }
    }

    #[test]
    fn complement_of_complete_graph_is_all_isolated() {
        let (cliques, walked) = decompose(&Graph::complete(5));
        assert!(walked.is_empty());
        assert_eq!(cliques, [vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::empty(1);
        assert_eq!(plex_level(&g), 1);
        let (cliques, walked) = decompose(&g);
        assert!(walked.is_empty());
        assert_eq!(cliques, [vec![0]]);
    }
}
