//! Degeneracy ordering and core decomposition.
//!
//! The degeneracy δ of a graph is the smallest value such that every subgraph
//! has a vertex of degree at most δ. The *degeneracy ordering* is obtained by
//! repeatedly removing a minimum-degree vertex; it is the ordering used by
//! `BK_Degen` (Eppstein–Löffler–Strash) and by the initial branching of the
//! vertex-oriented baselines in the paper. The implementation is the classic
//! linear-time bucket-queue peeling (Matula & Beck).

use crate::graph::{Graph, VertexId};

/// Result of the degeneracy computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegeneracyOrdering {
    /// Vertices in peeling order (first removed first).
    pub order: Vec<VertexId>,
    /// `position[v]` is the index of `v` in [`DegeneracyOrdering::order`].
    pub position: Vec<usize>,
    /// Core number of every vertex.
    pub core: Vec<usize>,
    /// The degeneracy δ (maximum core number; 0 for edgeless graphs).
    pub degeneracy: usize,
}

/// Computes the degeneracy ordering, core numbers and degeneracy of `g`.
///
/// Every vertex has at most δ neighbours later in the ordering, which is why
/// a vertex root's candidate set (its later neighbours) has at most δ
/// members.
pub fn degeneracy_ordering(g: &Graph) -> DegeneracyOrdering {
    let n = g.n();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v as VertexId)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);

    // Bucket queue: bucket[d] holds vertices of current degree d.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v as VertexId);
    }

    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut position = vec![0usize; n];
    let mut core = vec![0usize; n];
    let mut degeneracy = 0usize;
    let mut current_min = 0usize;

    for step in 0..n {
        // Find the next non-empty bucket holding a live vertex.
        let v = loop {
            if current_min > max_deg {
                unreachable!("bucket queue exhausted before all vertices were peeled");
            }
            match buckets[current_min].pop() {
                Some(v) if !removed[v as usize] && degree[v as usize] == current_min => break v,
                Some(_) => continue, // stale entry
                None => current_min += 1,
            }
        };

        removed[v as usize] = true;
        degeneracy = degeneracy.max(current_min);
        core[v as usize] = degeneracy;
        position[v as usize] = step;
        order.push(v);

        for &u in g.neighbors(v) {
            let ui = u as usize;
            if !removed[ui] && degree[ui] > 0 {
                degree[ui] -= 1;
                buckets[degree[ui]].push(u);
                if degree[ui] < current_min {
                    current_min = degree[ui];
                }
            }
        }
    }

    DegeneracyOrdering {
        order,
        position,
        core,
        degeneracy,
    }
}

/// Convenience wrapper returning only the degeneracy δ.
pub fn degeneracy(g: &Graph) -> usize {
    degeneracy_ordering(g).degeneracy
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Neighbours of `v` that come after `v` in the ordering `d`: a vertex
    /// root's candidate set.
    fn later_neighbor_count(g: &Graph, d: &DegeneracyOrdering, v: VertexId) -> usize {
        g.neighbors(v)
            .iter()
            .filter(|&&u| d.position[u as usize] > d.position[v as usize])
            .count()
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::empty(0);
        assert_eq!(degeneracy_ordering(&g).degeneracy, 0);
        let g = Graph::empty(5);
        let d = degeneracy_ordering(&g);
        assert_eq!(d.degeneracy, 0);
        assert_eq!(d.order.len(), 5);
    }

    #[test]
    fn path_has_degeneracy_one() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(degeneracy(&g), 1);
    }

    #[test]
    fn cycle_has_degeneracy_two() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert_eq!(degeneracy(&g), 2);
    }

    #[test]
    fn complete_graph_degeneracy_n_minus_one() {
        let g = Graph::complete(6);
        let d = degeneracy_ordering(&g);
        assert_eq!(d.degeneracy, 5);
        assert!(d.core.iter().all(|&c| c == 5));
    }

    #[test]
    fn star_has_degeneracy_one() {
        let g = Graph::from_edges(6, (1..6).map(|v| (0, v))).unwrap();
        assert_eq!(degeneracy(&g), 1);
    }

    #[test]
    fn clique_plus_pendant_cores() {
        // Triangle 0-1-2 with pendant vertex 3 attached to 0.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap();
        let d = degeneracy_ordering(&g);
        assert_eq!(d.degeneracy, 2);
        assert_eq!(d.core[3], 1);
        assert_eq!(d.core[0], 2);
        assert_eq!(d.core[1], 2);
        assert_eq!(d.core[2], 2);
    }

    #[test]
    fn ordering_is_a_permutation_with_consistent_positions() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
        .unwrap();
        let d = degeneracy_ordering(&g);
        let mut seen = vec![false; 7];
        for (i, &v) in d.order.iter().enumerate() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
            assert_eq!(d.position[v as usize], i);
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn at_most_delta_neighbors_come_later() {
        let g = Graph::complete(5);
        let d = degeneracy_ordering(&g);
        for v in g.vertices() {
            assert!(later_neighbor_count(&g, &d, v) <= d.degeneracy);
        }
    }

    #[test]
    fn path_vertices_have_at_most_one_later_neighbor() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let d = degeneracy_ordering(&g);
        // Every vertex's later neighbourhood has size <= 1 (degeneracy of a path).
        for v in g.vertices() {
            assert!(later_neighbor_count(&g, &d, v) <= 1);
        }
    }

    #[test]
    fn degeneracy_of_moon_moser_like_graph() {
        // Complete tripartite K(2,2,2): degeneracy = 4.
        let parts = [[0u32, 1], [2, 3], [4, 5]];
        let mut edges = Vec::new();
        for i in 0..3 {
            for j in (i + 1)..3 {
                for &a in &parts[i] {
                    for &b in &parts[j] {
                        edges.push((a, b));
                    }
                }
            }
        }
        let g = Graph::from_edges(6, edges).unwrap();
        assert_eq!(degeneracy(&g), 4);
    }
}
