//! Random t-plex generators.
//!
//! A t-plex is a graph where every vertex misses at most `t` vertices counting
//! itself, i.e. the complement has maximum degree at most `t − 1`. These are
//! exactly the dense candidate subgraphs on which the paper's
//! early-termination technique fires, so the test-suite and the ablation
//! benchmarks need a controllable supply of them.

use mce_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Builds the graph on `n` vertices whose **complement** consists exactly of
/// the given edges (self-loops and duplicates in `complement_edges` are ignored).
pub fn t_plex_from_complement(n: usize, complement_edges: &[(VertexId, VertexId)]) -> Graph {
    let complement = Graph::from_edges(n, complement_edges.iter().copied())
        .expect("complement endpoints are in range");
    let edges = (0..n as VertexId).flat_map(|u| {
        let complement = &complement;
        ((u + 1)..n as VertexId).filter_map(move |v| {
            if complement.has_edge(u, v) {
                None
            } else {
                Some((u, v))
            }
        })
    });
    Graph::from_edges(n, edges).expect("generated endpoints are in range")
}

/// Generates a random t-plex on `n` vertices (`1 ≤ t ≤ 3`).
///
/// * `t = 1` — the complete graph,
/// * `t = 2` — complete graph minus a random partial matching,
/// * `t = 3` — complete graph minus a random union of disjoint paths and
///   cycles (complement max degree 2).
///
/// # Panics
/// Panics if `t` is 0 or greater than 3 (the early-termination technique only
/// covers t ≤ 3, so larger plexes are out of scope here).
pub fn random_t_plex(n: usize, t: usize, seed: u64) -> Graph {
    assert!(
        (1..=3).contains(&t),
        "random_t_plex supports t in 1..=3, got {t}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    if t == 1 || n <= 1 {
        return Graph::complete(n);
    }

    let mut vertices: Vec<VertexId> = (0..n as VertexId).collect();
    vertices.shuffle(&mut rng);
    let mut complement_edges: Vec<(VertexId, VertexId)> = Vec::new();

    if t == 2 {
        // Random partial matching: pair up a random even-sized prefix.
        let pairs = rng.gen_range(0..=n / 2);
        for i in 0..pairs {
            complement_edges.push((vertices[2 * i], vertices[2 * i + 1]));
        }
    } else {
        // t == 3: split a random prefix into chunks, each becoming a path or cycle.
        let mut used = rng.gen_range(0..=n);
        let mut cursor = 0usize;
        while used >= 2 {
            let len = rng.gen_range(2..=used.min(6));
            let chunk = &vertices[cursor..cursor + len];
            let close_cycle = len >= 3 && rng.gen_bool(0.5);
            for w in chunk.windows(2) {
                complement_edges.push((w[0], w[1]));
            }
            if close_cycle {
                complement_edges.push((chunk[len - 1], chunk[0]));
            }
            cursor += len;
            used -= len;
        }
    }

    t_plex_from_complement(n, &complement_edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_construction_round_trips() {
        let g = t_plex_from_complement(5, &[(0, 1), (2, 3)]);
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(2, 3));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(1, 4));
        assert_eq!(g.m(), 10 - 2);
    }

    #[test]
    fn t1_is_complete() {
        let g = random_t_plex(8, 1, 3);
        assert_eq!(g.m(), 28);
        assert_eq!(g.complement().max_degree(), 0);
    }

    #[test]
    fn t2_is_a_two_plex() {
        for seed in 0..10 {
            let g = random_t_plex(12, 2, seed);
            assert!(g.complement().max_degree() < 2, "seed {seed}");
        }
    }

    #[test]
    fn t3_is_a_three_plex() {
        for seed in 0..10 {
            let g = random_t_plex(15, 3, seed);
            assert!(g.complement().max_degree() < 3, "seed {seed}");
        }
    }

    #[test]
    fn small_inputs() {
        assert_eq!(random_t_plex(0, 2, 1).n(), 0);
        assert_eq!(random_t_plex(1, 3, 1).n(), 1);
        assert_eq!(random_t_plex(2, 3, 1).n(), 2);
    }

    #[test]
    #[should_panic]
    fn t_zero_panics() {
        random_t_plex(5, 0, 1);
    }

    #[test]
    #[should_panic]
    fn t_four_panics() {
        random_t_plex(5, 4, 1);
    }
}
