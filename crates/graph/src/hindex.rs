//! The h-index of a graph's degree sequence.
//!
//! `BK_Degree` (Xu et al.) orders the initial branching by degree and its
//! worst-case bound is `O(nh·3^{h/3})` where `h` is the graph's h-index: the
//! largest `h` such that the graph has at least `h` vertices of degree ≥ `h`.
//! The h-index always satisfies `δ ≤ h ≤ Δ`, which is why the degeneracy
//! ordering (bound `δ`) dominates it in the paper's Table VII.

use crate::graph::Graph;

/// Computes the h-index of `g`'s degree sequence in `O(n)` after an `O(n)`
/// counting pass (no sort needed).
pub fn h_index(g: &Graph) -> usize {
    let n = g.n();
    if n == 0 {
        return 0;
    }
    // bucket[d] = number of vertices of degree exactly d (degrees capped at n).
    let mut buckets = vec![0usize; n + 1];
    for v in g.vertices() {
        let d = g.degree(v).min(n);
        buckets[d] += 1;
    }
    // Walk down from the largest degree, accumulating how many vertices have
    // degree >= h; the first h where the count reaches h is the h-index.
    let mut at_least = 0usize;
    for h in (0..=n).rev() {
        at_least += buckets[h];
        if at_least >= h {
            return h;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degeneracy::degeneracy;

    #[test]
    fn empty_and_edgeless_graphs() {
        assert_eq!(h_index(&Graph::empty(0)), 0);
        assert_eq!(h_index(&Graph::empty(10)), 0);
    }

    #[test]
    fn complete_graph_h_index_is_n_minus_one() {
        for n in 2..8 {
            assert_eq!(h_index(&Graph::complete(n)), n - 1);
        }
    }

    #[test]
    fn star_graph_h_index_is_one() {
        let g = Graph::from_edges(8, (1..8).map(|v| (0, v))).unwrap();
        assert_eq!(h_index(&g), 1);
    }

    #[test]
    fn path_h_index_is_two() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        // Four internal vertices of degree 2 => h = 2.
        assert_eq!(h_index(&g), 2);
    }

    #[test]
    fn h_index_bounded_by_degeneracy_and_max_degree() {
        let graphs = vec![
            Graph::from_edges(
                7,
                [
                    (0, 1),
                    (0, 2),
                    (0, 3),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                ],
            )
            .unwrap(),
            Graph::complete(6),
            Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap(),
        ];
        for g in graphs {
            let h = h_index(&g);
            assert!(degeneracy(&g) <= h, "δ ≤ h");
            assert!(h <= g.max_degree(), "h ≤ Δ");
        }
    }

    #[test]
    fn mixed_degree_sequence() {
        // Degrees: 4,3,3,2,1,1 → h = 3.
        let g =
            Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5)]).unwrap();
        assert_eq!(h_index(&g), 3);
    }
}
