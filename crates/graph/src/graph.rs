//! Compressed sparse row (CSR) representation of an undirected simple graph.

use crate::error::GraphError;

/// Vertex identifier. Kept at 32 bits so adjacency arrays stay compact.
pub type VertexId = u32;

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
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`.
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

    /// Number of common neighbours of `u` and `v` (linear merge of the two sorted lists).
    pub fn common_neighbor_count(&self, u: VertexId, v: VertexId) -> usize {
        let (mut i, mut j, a, b) = (0usize, 0usize, self.neighbors(u), self.neighbors(v));
        let mut count = 0;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Collects the common neighbours of `u` and `v` into `out` (cleared first).
    pub fn common_neighbors_into(&self, u: VertexId, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        let (mut i, mut j, a, b) = (0usize, 0usize, self.neighbors(u), self.neighbors(v));
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
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

    /// Builds the subgraph induced by `vertices`.
    ///
    /// Returns the induced [`Graph`] (with vertices relabelled to `0..k` in
    /// the order given) together with the mapping from new id to original id.
    /// Duplicate vertices in the input are ignored after their first
    /// occurrence.
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut map: Vec<VertexId> = Vec::with_capacity(vertices.len());
        let mut position = vec![u32::MAX; self.n()];
        for &v in vertices {
            if position[v as usize] == u32::MAX {
                position[v as usize] = map.len() as u32;
                map.push(v);
            }
        }
        let k = map.len();
        let mut edges = Vec::new();
        for (new_u, &orig_u) in map.iter().enumerate() {
            for &orig_v in self.neighbors(orig_u) {
                let new_v = position[orig_v as usize];
                if new_v != u32::MAX && (new_u as u32) < new_v {
                    edges.push((new_u as VertexId, new_v));
                }
            }
        }
        let g = Graph::from_edges(k, edges).expect("relabelled vertices are in range");
        (g, map)
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

    /// Total degree sum (2m); handy for sanity checks.
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
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
        assert_eq!(g.degree_sum(), 6);
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
        assert_eq!(g.common_neighbor_count(0, 1), 2);
        let mut out = Vec::new();
        g.common_neighbors_into(0, 1, &mut out);
        assert_eq!(out, vec![2, 3]);
        assert_eq!(g.common_neighbor_count(2, 3), 2); // both adjacent to 0 and 1
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
    fn induced_subgraph_relabels() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[2, 0, 1]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 3);
        assert_eq!(map, vec![2, 0, 1]);
        assert!(sub.is_clique(&[0, 1, 2]));
    }

    #[test]
    fn induced_subgraph_ignores_duplicates_and_outside_edges() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[0, 1, 1, 4]);
        assert_eq!(sub.n(), 3);
        assert_eq!(map, vec![0, 1, 4]);
        assert_eq!(sub.m(), 1); // only (0,1) survives
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
