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
//! slots, run one edge at a time by [`TrussPeel`]: the enumeration can start
//! the branch of edge `r` as soon as the peel has removed it, because Eq. (2)
//! only asks which edges were removed before it. The supports are counted by
//! marking ([`crate::edge_supports`]), and peeling an edge walks its
//! endpoints' common neighbours by marking the shorter list in the peel's own
//! mark array ([`Graph::for_each_common_neighbor`]): `O(deg u + deg v)` per
//! edge, and less against a hub. The walk yields the slots of both triangle
//! edges, so nothing is looked up, and it tells the caller which common
//! neighbours are Eq. (2)'s candidates of the peeled edge.
//! [`truss_ordering`] and [`edge_ordering`](crate::ordering::edge_ordering)
//! run the same peel to the end.

use crate::graph::{Graph, VertexId};
use crate::ordering::EdgeOrdering;
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
    let (eo, tau) = peel_to_end(g);
    TrussOrdering {
        edges: eo.edges().collect(),
        tau,
    }
}

/// Runs a [`TrussPeel`] of `g` to the end: the ranked ordering and τ.
pub(crate) fn peel_to_end(g: &Graph) -> (EdgeOrdering, usize) {
    let eo = EdgeOrdering::unranked(g);
    let mut peel = TrussPeel::new(g);
    while peel.next(&eo, |_, _| {}).is_some() {}
    (eo, peel.tau())
}

/// The truss peel, one edge at a time: each [`TrussPeel::next`] removes the
/// remaining edge of smallest remaining support and ranks it in an
/// [`EdgeOrdering`].
#[derive(Debug)]
pub struct TrussPeel<'g> {
    g: &'g Graph,
    reverse: Vec<u32>,
    /// The common-neighbour mark array of every walk.
    mark: Vec<u32>,
    /// Each edge's live support, kept at its smaller slot: the one in its
    /// smaller endpoint's list.
    support: Vec<u32>,
    /// Bucket queue of smaller slots keyed by support; entries can be stale.
    buckets: Vec<Vec<u32>>,
    /// No live entry sits in a bucket below this one.
    current: usize,
    /// Edges peeled so far: the rank of the next one.
    steps: usize,
    tau: usize,
}

impl<'g> TrussPeel<'g> {
    /// Counts the supports of `g`'s edges and fills the bucket queue.
    pub fn new(g: &'g Graph) -> Self {
        let reverse = g.reverse_slots();
        let mut mark = vec![u32::MAX; g.n()];
        let support = supports(g, &reverse, &mut mark);
        let max_sup = support.iter().copied().max().unwrap_or(0) as usize;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_sup + 1];
        for (s, &r) in reverse.iter().enumerate() {
            if (s as u32) < r {
                buckets[support[s] as usize].push(s as u32);
            }
        }
        TrussPeel {
            g,
            reverse,
            mark,
            support,
            buckets,
            current: 0,
            steps: 0,
            tau: 0,
        }
    }

    /// The number of edges peeled so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The largest support an edge had when it was peeled, so far: τ once
    /// every edge is peeled.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// Peels the next edge `(u, v)`, `u < v`, and returns it, or `None` once
    /// every edge is peeled. Its step, [`TrussPeel::steps`] before the call,
    /// becomes its rank in `eo`, which must be [`EdgeOrdering::unranked`]
    /// of the same graph and ranked by this peel only. Then `f(w, later)`
    /// is called for every common neighbour `w` of `u` and `v`, in
    /// increasing order, where `later` says whether both triangle edges
    /// `(u, w)` and `(v, w)` are still unpeeled: the flags
    /// [`EdgeOrdering::for_each_common_neighbor`] gives at this rank.
    pub fn next<F>(&mut self, eo: &EdgeOrdering, mut f: F) -> Option<(VertexId, VertexId)>
    where
        F: FnMut(VertexId, bool),
    {
        /// Rank of an edge that is not peeled yet.
        const ALIVE: u32 = u32::MAX;
        if self.steps == self.g.m() {
            return None;
        }
        let TrussPeel {
            g,
            reverse,
            mark,
            support,
            buckets,
            current,
            steps,
            tau,
        } = self;
        let s = loop {
            let Some(bucket) = buckets.get_mut(*current) else {
                unreachable!("support bucket queue exhausted before all edges were peeled");
            };
            match bucket.pop() {
                Some(s)
                    if eo.rank(s as usize) == ALIVE && support[s as usize] as usize == *current =>
                {
                    break s as usize
                }
                Some(_) => continue,
                None => *current += 1,
            }
        };

        let r = reverse[s] as usize;
        let step = *steps as u32;
        let (u, v) = (g.csr_adjacency()[r], g.csr_adjacency()[s]);
        eo.record(step, (u, v), [s, r]);
        *steps += 1;
        *tau = (*tau).max(support[s] as usize);

        // Every triangle (u, v, w) through e = (u, v) loses this edge: decrement
        // the supports of (u, w) and (v, w) if both are still alive.
        g.for_each_common_neighbor(u, v, mark, |w, uw, vw| {
            let later = eo.rank(uw) == ALIVE && eo.rank(vw) == ALIVE;
            if later {
                for e in [uw, vw] {
                    let e = e.min(reverse[e] as usize);
                    if support[e] > 0 {
                        support[e] -= 1;
                        buckets[support[e] as usize].push(e as u32);
                        *current = (*current).min(support[e] as usize);
                    }
                }
            }
            f(w, later);
        });
        Some((u, v))
    }
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
        assert!(eo.edges().eq(truss_ordering(g).edges));
        let mut mark = vec![u32::MAX; g.n()];
        (0..eo.len())
            .map(|rank| {
                let mut later = 0;
                eo.for_each_common_neighbor(g, rank, &mut mark, |_, l| later += l as usize);
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
