//! Compressed sparse row (CSR) representation of an undirected simple graph.

use crate::error::GraphError;

/// Vertex identifier. Kept at 32 bits so adjacency arrays stay compact.
pub type VertexId = u32;

/// The most undirected edges a [`Graph`] holds: each edge fills two CSR
/// slots, and slot-valued arrays ([`Graph::reverse_slots`], edge ranks) are
/// `u32`, so the `2m` adjacency entries must not exceed `u32::MAX`.
pub const MAX_EDGES: u64 = u32::MAX as u64 / 2;

/// Rejects an adjacency array with more than `u32::MAX` entries.
fn check_adjacency_len(len: usize) -> Result<(), GraphError> {
    if len as u64 > 2 * MAX_EDGES {
        return Err(GraphError::TooManyEdges {
            m: len as u64 / 2,
            limit: MAX_EDGES,
        });
    }
    Ok(())
}

/// An immutable, undirected, simple graph in CSR form.
///
/// * vertices are `0..n()`,
/// * each adjacency list is sorted in increasing order,
/// * there are no self-loops and no parallel edges.
///
/// Construct one with [`Graph::from_edges`], a [`crate::GraphBuilder`], or one
/// of the generators in the `mce-gen` crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adjacency: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// Self-loops are dropped and duplicate edges (in either orientation) are
    /// collapsed, so any iterator of pairs is accepted.
    ///
    /// # Errors
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`,
    /// [`GraphError::TooManyVertices`] if `n > u32::MAX` and
    /// [`GraphError::TooManyEdges`] above [`MAX_EDGES`] distinct edges.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyVertices {
                n: n as u64,
                limit: u32::MAX as u64,
            });
        }
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for (u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u as u64,
                    n,
                });
            }
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v as u64,
                    n,
                });
            }
            if u == v {
                continue;
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut adjacency = Vec::new();
        for list in adj.iter_mut() {
            list.sort_unstable();
            list.dedup();
            adjacency.extend_from_slice(list);
            offsets.push(adjacency.len());
        }
        check_adjacency_len(adjacency.len())?;
        Ok(Graph { offsets, adjacency })
    }

    /// Builds a graph directly from raw CSR arrays in `O(n + m)` memory.
    ///
    /// This is the scale-path constructor: unlike [`Graph::from_edges`] it
    /// never materialises a `Vec<Vec<VertexId>>` intermediate, so loading a
    /// 1M-vertex / 10M-edge graph peaks at the size of the two arrays plus
    /// constants. The binary `.mcg` loader ([`crate::mcg`]) and large
    /// generators feed this directly.
    ///
    /// Every CSR invariant is validated before the graph is accepted:
    ///
    /// * `offsets` has `n + 1` entries, starts at 0, ends at
    ///   `adjacency.len()`, and is non-decreasing,
    /// * each adjacency list is strictly increasing (sorted, no duplicates),
    /// * every entry is a valid vertex id and never the list's own vertex
    ///   (no self-loops),
    /// * adjacency is symmetric: `(u, v)` present iff `(v, u)` present.
    ///
    /// # Errors
    /// [`GraphError::TooManyVertices`] if `n > u32::MAX`;
    /// [`GraphError::TooManyEdges`] for more than `u32::MAX` adjacency entries;
    /// [`GraphError::VertexOutOfRange`] for an out-of-range entry;
    /// [`GraphError::InvalidData`] for any other violated invariant.
    pub fn from_csr_parts(
        offsets: Vec<usize>,
        adjacency: Vec<VertexId>,
    ) -> Result<Self, GraphError> {
        let Some(n) = offsets.len().checked_sub(1) else {
            return Err(GraphError::InvalidData {
                message: "offset array must have n + 1 entries, got 0".into(),
            });
        };
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyVertices {
                n: n as u64,
                limit: u32::MAX as u64,
            });
        }
        check_adjacency_len(adjacency.len())?;
        if offsets[0] != 0 {
            return Err(GraphError::InvalidData {
                message: format!("first offset must be 0, got {}", offsets[0]),
            });
        }
        if offsets[n] != adjacency.len() {
            return Err(GraphError::InvalidData {
                message: format!(
                    "last offset {} does not match adjacency length {}",
                    offsets[n],
                    adjacency.len()
                ),
            });
        }
        if let Some(v) = (0..n).find(|&v| offsets[v] > offsets[v + 1]) {
            return Err(GraphError::InvalidData {
                message: format!(
                    "offsets decrease at vertex {v}: {} > {}",
                    offsets[v],
                    offsets[v + 1]
                ),
            });
        }
        let g = Graph { offsets, adjacency };
        // Per-list invariants: strictly increasing, in range, no self-loop.
        for v in 0..n as VertexId {
            let list = g.neighbors(v);
            let mut prev: Option<VertexId> = None;
            for &u in list {
                if u as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: u as u64,
                        n,
                    });
                }
                if u == v {
                    return Err(GraphError::InvalidData {
                        message: format!("self-loop on vertex {v}"),
                    });
                }
                if let Some(p) = prev {
                    if u <= p {
                        return Err(GraphError::InvalidData {
                            message: format!(
                                "adjacency list of vertex {v} is not strictly increasing \
                                 ({p} followed by {u})"
                            ),
                        });
                    }
                }
                prev = Some(u);
            }
        }
        // Symmetry: every forward entry (u < v) must have its mirror, and the
        // forward/backward entry counts must agree — with strictly sorted
        // lists this proves the adjacency relation is symmetric.
        let (mut forward, mut backward) = (0usize, 0usize);
        for u in 0..n as VertexId {
            for &v in g.neighbors(u) {
                if v > u {
                    forward += 1;
                    if g.neighbors(v).binary_search(&u).is_err() {
                        return Err(GraphError::InvalidData {
                            message: format!("edge ({u}, {v}) has no mirror entry ({v}, {u})"),
                        });
                    }
                } else {
                    backward += 1;
                }
            }
        }
        if forward != backward {
            return Err(GraphError::InvalidData {
                message: format!(
                    "asymmetric adjacency: {forward} forward entries vs {backward} backward"
                ),
            });
        }
        Ok(g)
    }

    /// The raw CSR offset array: `n + 1` non-decreasing entries, where
    /// `csr_offsets()[v]..csr_offsets()[v + 1]` spans [`Graph::neighbors`]`(v)`
    /// inside [`Graph::csr_adjacency`].
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated adjacency array (length `2m`, each list sorted).
    #[inline]
    pub fn csr_adjacency(&self) -> &[VertexId] {
        &self.adjacency
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adjacency: Vec::new(),
        }
    }

    /// The complete graph on `n` vertices.
    pub fn complete(n: usize) -> Self {
        let edges = (0..n as VertexId).flat_map(|u| ((u + 1)..n as VertexId).map(move |v| (u, v)));
        Graph::from_edges(n, edges).expect("complete graph endpoints are in range")
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// The sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the edge `(u, v)` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n() as VertexId
    }

    /// Iterates over every undirected edge exactly once as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Edge density ρ = m / n as used throughout the paper (0 when n = 0).
    pub fn edge_density(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.m() as f64 / self.n() as f64
        }
    }

    /// The CSR slot of the directed edge `u → v`: the index of `v` in
    /// [`Graph::csr_adjacency`], inside `u`'s list. Every undirected edge has
    /// two slots, one per direction, and either one identifies the edge.
    /// `O(log deg(u))`.
    pub fn slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let start = self.offsets[u as usize];
        self.neighbors(u).binary_search(&v).ok().map(|i| start + i)
    }

    /// The reverse of every slot: `reverse[s]` is the slot of the opposite
    /// direction of the edge at slot `s`. It is an involution, and
    /// `csr_adjacency()[reverse[s]]` is the vertex whose list holds `s`.
    /// `O(n + m)`.
    pub fn reverse_slots(&self) -> Vec<u32> {
        let mut reverse = vec![0u32; self.adjacency.len()];
        // `next[v]` is v's first unpaired slot. v's lower neighbours lead its
        // sorted list, and the loop meets them in increasing order.
        let mut next = self.offsets[..self.n()].to_vec();
        for u in self.vertices() {
            for s in self.offsets[u as usize]..self.offsets[u as usize + 1] {
                let v = self.adjacency[s] as usize;
                if v > u as usize {
                    let r = next[v];
                    next[v] += 1;
                    debug_assert_eq!(self.adjacency[r], u);
                    reverse[s] = r as u32;
                    reverse[r] = s as u32;
                }
            }
        }
        reverse
    }

    /// Calls `f(w, su, sv)` for every common neighbour `w` of `u` and `v`, in
    /// increasing order, where `su` and `sv` are the slots of `u → w` and
    /// `v → w`. One linear merge of the two sorted lists.
    #[inline]
    pub fn for_each_common_neighbor<F>(&self, u: VertexId, v: VertexId, mut f: F)
    where
        F: FnMut(VertexId, usize, usize),
    {
        let (mut i, a_end) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
        let (mut j, b_end) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        while i < a_end && j < b_end {
            let (a, b) = (self.adjacency[i], self.adjacency[j]);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    f(a, i, j);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Collects the common neighbours of `u` and `v` into `out` (cleared first).
    pub fn common_neighbors_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        self.for_each_common_neighbor(u, v, |w, _, _| out.push(w));
    }

    /// Returns whether the vertex set `vs` induces a clique in this graph.
    pub fn is_clique(&self, vs: &[VertexId]) -> bool {
        for (i, &u) in vs.iter().enumerate() {
            for &v in &vs[i + 1..] {
                if !self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the complement of this graph (only sensible for small graphs).
    pub fn complement(&self) -> Graph {
        let n = self.n();
        let mut edges = Vec::new();
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                if !self.has_edge(u, v) {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, edges).expect("complement endpoints are in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn from_edges_basic_counts() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn from_edges_dedups_and_drops_self_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, n: 2 }
        ));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = path4();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn complete_graph_counts() {
        let g = Graph::complete(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 10);
        assert!(g.is_clique(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        let g0 = Graph::empty(0);
        assert_eq!(g0.n(), 0);
        assert_eq!(g0.edge_density(), 0.0);
    }

    #[test]
    fn edge_density_matches_paper_definition() {
        let g = Graph::complete(4); // n=4, m=6
        assert!((g.edge_density() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn common_neighbors() {
        // Triangle 0-1-2 plus pendant 3 attached to 0 and 1.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)]).unwrap();
        let mut out = Vec::new();
        g.common_neighbors_into(0, 1, &mut out);
        assert_eq!(out, vec![2, 3]);
        g.common_neighbors_into(2, 3, &mut out);
        assert_eq!(out, vec![0, 1]); // both adjacent to 0 and 1
        let mut seen = Vec::new();
        g.for_each_common_neighbor(2, 3, |w, s2, s3| seen.push((w, s2, s3)));
        let slot = |u, v| g.slot(u, v).unwrap();
        assert_eq!(
            seen,
            vec![(0, slot(2, 0), slot(3, 0)), (1, slot(2, 1), slot(3, 1))]
        );
    }

    #[test]
    fn slots_address_both_directions() {
        let g = path4();
        // Adjacency: 0:[1] 1:[0, 2] 2:[1, 3] 3:[2].
        assert_eq!(g.csr_adjacency(), &[1, 0, 2, 1, 3, 2]);
        assert_eq!(g.slot(0, 1), Some(0));
        assert_eq!(g.slot(1, 0), Some(1));
        assert_eq!(g.slot(2, 3), Some(4));
        assert_eq!(g.slot(0, 2), None);
        assert_eq!(g.slot(1, 1), None);
        assert_eq!(g.reverse_slots(), vec![1, 0, 3, 2, 5, 4]);
        assert!(Graph::empty(3).reverse_slots().is_empty());
    }

    #[test]
    fn is_clique_detects_missing_edge() {
        let g = path4();
        assert!(g.is_clique(&[0, 1]));
        assert!(g.is_clique(&[2]));
        assert!(g.is_clique(&[]));
        assert!(!g.is_clique(&[0, 1, 2]));
    }

    #[test]
    fn complement_of_path() {
        let g = path4();
        let c = g.complement();
        assert_eq!(c.m(), 3); // K4 has 6 edges, path has 3
        assert!(c.has_edge(0, 2));
        assert!(c.has_edge(0, 3));
        assert!(c.has_edge(1, 3));
        assert!(!c.has_edge(0, 1));
    }

    #[test]
    fn from_csr_parts_roundtrips_from_edges() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]).unwrap();
        let rebuilt =
            Graph::from_csr_parts(g.csr_offsets().to_vec(), g.csr_adjacency().to_vec()).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn from_csr_parts_accepts_empty_graph() {
        let g = Graph::from_csr_parts(vec![0], Vec::new()).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = Graph::from_csr_parts(vec![0, 0, 0], Vec::new()).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn from_csr_parts_rejects_empty_offsets() {
        assert!(matches!(
            Graph::from_csr_parts(Vec::new(), Vec::new()),
            Err(GraphError::InvalidData { .. })
        ));
    }

    #[test]
    fn from_csr_parts_rejects_bad_offsets() {
        // First offset non-zero.
        assert!(Graph::from_csr_parts(vec![1, 2], vec![0, 1]).is_err());
        // Last offset disagrees with adjacency length.
        assert!(Graph::from_csr_parts(vec![0, 1, 2], vec![1, 0, 0]).is_err());
        // Decreasing offsets.
        assert!(Graph::from_csr_parts(vec![0, 2, 1, 2], vec![1, 0]).is_err());
    }

    #[test]
    fn from_csr_parts_rejects_bad_lists() {
        // Out of range entry.
        assert!(matches!(
            Graph::from_csr_parts(vec![0, 1, 2], vec![7, 0]),
            Err(GraphError::VertexOutOfRange { vertex: 7, n: 2 })
        ));
        // Self-loop.
        assert!(Graph::from_csr_parts(vec![0, 1, 1], vec![0]).is_err());
        // Duplicate entry (not strictly increasing).
        assert!(Graph::from_csr_parts(vec![0, 2, 4], vec![1, 1, 0, 0]).is_err());
        // Unsorted list.
        assert!(Graph::from_csr_parts(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).is_err());
    }

    #[test]
    fn from_csr_parts_rejects_asymmetry() {
        // (0,1) present but (1,0) missing — vertex 1's list is empty.
        assert!(matches!(
            Graph::from_csr_parts(vec![0, 1, 1], vec![1]),
            Err(GraphError::InvalidData { .. })
        ));
        // Backward-only entry: (1,0) present without (0,1).
        assert!(matches!(
            Graph::from_csr_parts(vec![0, 0, 1], vec![0]),
            Err(GraphError::InvalidData { .. })
        ));
    }

    #[test]
    fn complement_of_complete_is_empty() {
        let g = Graph::complete(6);
        let c = g.complement();
        assert_eq!(c.m(), 0);
        assert_eq!(c.n(), 6);
    }
}
