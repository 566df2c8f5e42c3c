//! Compressed sparse row (CSR) representation of an undirected simple graph.

use crate::error::GraphError;

/// Vertex identifier. Kept at 32 bits so adjacency arrays stay compact.
pub type VertexId = u32;

/// The most undirected edges a [`Graph`] holds: each edge fills two CSR
/// slots, and slot-valued arrays ([`Graph::reverse_slots`], edge ranks) are
/// `u32`, so the `2m` adjacency entries must not exceed `u32::MAX`.
pub const MAX_EDGES: u64 = u32::MAX as u64 / 2;

/// Length ratio above which scanning a long sorted list costs more than
/// searching it once per entry of a short one: [`Graph::for_each_common_neighbor`]
/// searches a neighbour list more than this many times longer than the
/// other, instead of scanning it.
pub const SKEWED_LISTS: usize = 32;

/// Searches the sorted `list` for `w` like `binary_search`, in
/// `O(log i)` steps for a result at index `i`: doubling probes bracket the
/// position, then a binary search settles it inside the bracket. A leaf's
/// common neighbours with a hub often sit near the front of the hub's
/// list (the other hub of a book), where this costs O(1) and a plain
/// binary search O(log deg).
fn gallop(list: &[VertexId], w: VertexId) -> Result<usize, usize> {
    let mut end = 1;
    while end <= list.len() && list[end - 1] < w {
        end *= 2;
    }
    // Every entry before `end / 2` is below `w`.
    let start = end / 2;
    match list[start..end.min(list.len())].binary_search(&w) {
        Ok(i) => Ok(start + i),
        Err(i) => Err(start + i),
    }
}

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
    /// The CSR arrays are built by counting: the edges are collected into
    /// one vector (a `Vec` is taken over without a copy), the degrees are
    /// counted into the offset array and summed, one pass fills every row,
    /// and each row is then sorted (unless it already is) and deduplicated
    /// in place. Besides the edges it allocates only the two CSR arrays.
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
        let edges: Vec<(VertexId, VertexId)> = edges.into_iter().collect();
        // `offsets[v + 1]` counts v's degree, then holds the start of v's
        // row, then (once the fill has advanced it) the row's end.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            for w in [u, v] {
                if w as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: w as u64,
                        n,
                    });
                }
            }
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        let mut start = 0;
        for slot in &mut offsets[1..] {
            let degree = *slot;
            *slot = start;
            start += degree;
        }
        let mut adjacency: Vec<VertexId> = vec![0; start];
        for (u, v) in edges {
            if u != v {
                for (a, b) in [(u, v), (v, u)] {
                    let next = &mut offsets[a as usize + 1];
                    adjacency[*next] = b;
                    *next += 1;
                }
            }
        }
        // Sort and deduplicate each row, moving it down over the entries
        // that earlier rows dropped.
        let mut kept = 0;
        for v in 0..n {
            let row = offsets[v]..offsets[v + 1];
            offsets[v] = kept;
            let list = &mut adjacency[row.clone()];
            if !list.windows(2).all(|pair| pair[0] <= pair[1]) {
                list.sort_unstable();
            }
            for i in row {
                let w = adjacency[i];
                if kept == offsets[v] || adjacency[kept - 1] != w {
                    adjacency[kept] = w;
                    kept += 1;
                }
            }
        }
        offsets[n] = kept;
        adjacency.truncate(kept);
        adjacency.shrink_to_fit();
        check_adjacency_len(adjacency.len())?;
        Ok(Graph { offsets, adjacency })
    }

    /// Builds a graph directly from raw CSR arrays in `O(n + m)` time and
    /// memory.
    ///
    /// This is the scale-path constructor: the binary `.mcg` loader
    /// ([`crate::mcg`]) hands its streamed arrays straight to it, so loading
    /// a 1M-vertex / 10M-edge graph peaks at the size of the two arrays plus
    /// one cursor per vertex for the symmetry check.
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
        // Symmetry, in one pass with one cursor per vertex: `next[v]` is v's
        // first unmatched slot. The lists are strictly increasing, so v's
        // lower neighbours lead its list in increasing order, and visiting
        // every u in increasing order meets the entries (u, v), u < v, in
        // that same order: each must find u at v's cursor.
        let no_mirror = |u: VertexId, v: VertexId| GraphError::InvalidData {
            message: format!("edge ({u}, {v}) has no mirror entry ({v}, {u})"),
        };
        // Slots fit in u32: `check_adjacency_len` passed.
        let mut next: Vec<u32> = g.offsets[..n].iter().map(|&s| s as u32).collect();
        for u in 0..n as VertexId {
            for &v in g.neighbors(u) {
                if v > u {
                    let cursor = &mut next[v as usize];
                    let s = *cursor as usize;
                    if s == g.offsets[v as usize + 1] || g.adjacency[s] > u {
                        return Err(no_mirror(u, v));
                    }
                    if g.adjacency[s] < u {
                        return Err(no_mirror(v, g.adjacency[s]));
                    }
                    *cursor += 1;
                }
            }
        }
        // Every lower neighbour must have been matched.
        for v in 0..n as VertexId {
            let s = next[v as usize] as usize;
            if s < g.offsets[v as usize + 1] && g.adjacency[s] < v {
                return Err(no_mirror(v, g.adjacency[s]));
            }
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
    /// `v → w`.
    ///
    /// `mark` is the caller's scratch: `n()` entries, all `u32::MAX` outside
    /// this call. The walk marks the shorter list's entries with their slots,
    /// scans the longer list in order and then unmarks, so it costs
    /// `O(deg u + deg v)` with one well-predicted test per scanned entry.
    /// When the longer list is more than [`SKEWED_LISTS`] times the shorter
    /// one (a hub against a low-degree vertex), it instead searches each
    /// entry of the shorter list in the rest of the longer one, in
    /// `O(min · log max)`, and leaves `mark` alone.
    #[inline]
    pub fn for_each_common_neighbor<F>(&self, u: VertexId, v: VertexId, mark: &mut [u32], mut f: F)
    where
        F: FnMut(VertexId, usize, usize),
    {
        debug_assert_eq!(mark.len(), self.n());
        let swapped = self.degree(u) > self.degree(v);
        let (short, long) = if swapped { (v, u) } else { (u, v) };
        let short = self.offsets[short as usize]..self.offsets[short as usize + 1];
        let long = self.offsets[long as usize]..self.offsets[long as usize + 1];
        let mut visit = |w, ss, sl| {
            if swapped {
                f(w, sl, ss)
            } else {
                f(w, ss, sl)
            }
        };
        if long.len() / SKEWED_LISTS > short.len() {
            let mut from = long.start;
            for ss in short {
                let w = self.adjacency[ss];
                match gallop(&self.adjacency[from..long.end], w) {
                    Ok(i) => {
                        visit(w, ss, from + i);
                        from += i + 1;
                    }
                    Err(i) => from += i,
                }
            }
            return;
        }
        for s in short.clone() {
            mark[self.adjacency[s] as usize] = s as u32;
        }
        for sl in long {
            let w = self.adjacency[sl];
            let ss = mark[w as usize];
            if ss != u32::MAX {
                visit(w, ss as usize, sl);
            }
        }
        for s in short {
            mark[self.adjacency[s] as usize] = u32::MAX;
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
        let mut mark = vec![u32::MAX; g.n()];
        let slot = |u, v| g.slot(u, v).unwrap();
        // deg 2 = deg 3, deg 0 > deg 2: both orders of the shorter list.
        for (u, v) in [(2, 3), (3, 2), (0, 2), (2, 0)] {
            let mut seen = Vec::new();
            g.for_each_common_neighbor(u, v, &mut mark, |w, su, sv| seen.push((w, su, sv)));
            let want: Vec<_> = (0..4)
                .filter(|&w| g.has_edge(u, w) && g.has_edge(v, w))
                .map(|w| (w, slot(u, w), slot(v, w)))
                .collect();
            assert_eq!(seen, want, "({u}, {v})");
            assert!(mark.iter().all(|&m| m == u32::MAX));
        }
        let mut seen = Vec::new();
        g.for_each_common_neighbor(2, 3, &mut mark, |w, _, _| seen.push(w));
        assert_eq!(seen, vec![0, 1]); // both adjacent to 0 and 1
    }

    #[test]
    fn gallop_agrees_with_binary_search() {
        let list: Vec<VertexId> = (0..40).map(|i| 3 * i + 1).collect();
        for len in 0..list.len() {
            for w in 0..125 {
                assert_eq!(gallop(&list[..len], w), list[..len].binary_search(&w));
            }
        }
    }

    #[test]
    fn skewed_lists_are_searched() {
        // Hub 0 joined to 1..=200; 1 also joined to 5 and 199, 2 to 7.
        let n = 201;
        let edges = (1..n as u32)
            .map(|v| (0, v))
            .chain([(1, 5), (1, 199), (2, 7)]);
        let g = Graph::from_edges(n, edges).unwrap();
        assert!(g.degree(0) / SKEWED_LISTS > g.degree(1));
        let mut mark = vec![u32::MAX; n];
        let slot = |u, v| g.slot(u, v).unwrap();
        for (u, v, common) in [(0, 1, vec![5, 199]), (2, 0, vec![7]), (0, 3, vec![])] {
            let mut seen = Vec::new();
            g.for_each_common_neighbor(u, v, &mut mark, |w, su, sv| seen.push((w, su, sv)));
            let want: Vec<_> = common
                .into_iter()
                .map(|w| (w, slot(u, w), slot(v, w)))
                .collect();
            assert_eq!(seen, want, "({u}, {v})");
        }
        assert!(mark.iter().all(|&m| m == u32::MAX));
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
