//! Planted-hub graphs: the worst case for root-level parallel scheduling.
//!
//! Real clique workloads are skewed — a few hub vertices sit in a huge share
//! of the maximal cliques — and a parallel run that only distributes whole
//! *root branches* is bounded below by the largest root subtree. This generator
//! produces the extreme point of that regime on purpose: a **hub** vertex
//! adjacent to every other vertex, over a complete multipartite "community
//! core" `K_{s,s,…}` (each maximal clique picks one vertex per part, so a
//! core with `k` parts of size `s` has exactly `s^k` maximal cliques, every
//! one of which contains the hub).
//!
//! Consequences for scheduling:
//!
//! * Under natural-order vertex branching (`BK_Pivot`), the hub is vertex 0,
//!   so its root branch owns the **entire** recursion tree and every other
//!   root is empty — handing out whole roots degenerates to sequential
//!   execution regardless of thread count, while mid-branch work donation
//!   spreads the hub subtree over all workers.
//! * Parts of size ≥ 4 keep the core's complement degree ≥ 3, so the paper's
//!   early termination (`t ≤ 3`) cannot collapse the subtree and the full
//!   branching recursion is exercised.
//!
//! The parallel engine's donation tests and property tests are the intended
//! consumers.

use mce_graph::Graph;

/// Builds a planted-hub graph on `n` vertices: vertex 0 (the hub) is
/// adjacent to all others, and vertices `1..n` form a complete multipartite
/// graph with parts of `part_size` consecutive vertices (the last part may
/// be smaller). With `c` complete parts of size `p ≥ 2` and no remainder the
/// graph has exactly `p^c` maximal cliques, all containing the hub.
///
/// `part_size` is clamped to ≥ 1; `part_size = 1` makes the core a clique
/// (one maximal clique). Deterministic: no randomness is involved.
pub fn planted_hub(n: usize, part_size: usize) -> Graph {
    let part_size = part_size.max(1);
    let mut edges = Vec::new();
    for v in 1..n as u32 {
        edges.push((0, v));
    }
    for u in 1..n as u32 {
        for v in (u + 1)..n as u32 {
            let part_u = (u as usize - 1) / part_size;
            let part_v = (v as usize - 1) / part_size;
            if part_u != part_v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges).expect("endpoints in range by construction")
}

/// The number of maximal cliques of [`planted_hub`]`(n, part_size)` —
/// product of the part sizes of the core (1 for `n ≤ 1`).
pub fn planted_hub_clique_count(n: usize, part_size: usize) -> u64 {
    let part_size = part_size.max(1);
    if n <= 1 {
        return 1;
    }
    let core = n - 1;
    let full_parts = core / part_size;
    let remainder = core % part_size;
    let mut count = (part_size as u64).pow(full_parts as u32);
    if remainder > 0 {
        count *= remainder as u64;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_is_adjacent_to_everything() {
        let g = planted_hub(13, 4);
        assert_eq!(g.degree(0), g.n() - 1);
    }

    #[test]
    fn core_is_complete_multipartite() {
        let g = planted_hub(9, 4);
        // Parts: {1,2,3,4}, {5,6,7,8}.
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(5, 8));
        assert!(g.has_edge(1, 5));
        assert!(g.has_edge(4, 8));
    }

    #[test]
    fn clique_count_formula_matches_structure() {
        assert_eq!(planted_hub_clique_count(9, 4), 16); // 4^2
        assert_eq!(planted_hub_clique_count(13, 4), 64); // 4^3
        assert_eq!(planted_hub_clique_count(12, 4), 4 * 4 * 3); // remainder 3
        assert_eq!(planted_hub_clique_count(1, 4), 1);
        assert_eq!(planted_hub_clique_count(0, 4), 1);
        assert_eq!(planted_hub_clique_count(6, 1), 1); // core is a clique
    }

    #[test]
    fn tiny_instances_are_well_formed() {
        assert_eq!(planted_hub(0, 4).n(), 0);
        assert_eq!(planted_hub(1, 4).m(), 0);
        let g = planted_hub(2, 4);
        assert_eq!((g.n(), g.m()), (2, 1));
    }
}
