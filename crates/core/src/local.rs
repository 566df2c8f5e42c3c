//! Working representation of a branch's vertex universe.
//!
//! After the initial (root) branching step the recursion only ever touches the
//! vertices of `C ∪ X` of that root branch — a set bounded by the degeneracy δ
//! (vertex-oriented roots) or the truss parameter τ (edge-oriented roots),
//! plus the exclusion side. The crate-private `LocalGraph` relabels those
//! vertices to a dense `0..k` id space and stores their adjacency as the rows
//! of a contiguous [`AdjMatrix`] (one flat `Vec<u64>` with row stride), so
//! that branch refinement (`C ∩ N(v)`), pivot scoring and the
//! early-termination check are all word-parallel over cache-adjacent rows.
//!
//! Two adjacency relations are kept:
//!
//! * `g_adj` — the true adjacency of the input graph restricted to the local
//!   vertices. Used for maximality checking (moving vertices to `X`) and for
//!   the early-termination plex test.
//! * `cand_adj` — the *candidate* adjacency: `g_adj` minus the edges excluded
//!   by earlier sibling branches of an edge-oriented branching step (Eq. 2 of
//!   the paper removes processed edges from the candidate graph). When no
//!   edge has been excluded the candidate rows are bit-identical to the true
//!   rows.
//!
//! A `LocalGraph` is designed to be **rebuilt in place**
//! (`LocalGraph::rebuild_filtered`): the per-worker enumeration state keeps
//! one instance whose matrix buffers are reused across all root branches, so
//! steady-state root processing does not allocate.

use mce_graph::{AdjMatrix, Graph, VertexId};

/// Dense local view of a branch's vertex universe (`C ∪ X` of the root branch).
#[derive(Clone, Debug, Default)]
pub(crate) struct LocalGraph {
    /// Local id → original vertex id.
    pub orig: Vec<VertexId>,
    /// True graph adjacency between local vertices.
    g_adj: AdjMatrix,
    /// Candidate adjacency. Kept bit-identical to `g_adj` when no edge has
    /// been filtered so `cand` can always return a valid row.
    cand_adj: AdjMatrix,
}

impl LocalGraph {
    /// An empty local graph whose buffers can be reused via
    /// [`LocalGraph::rebuild_filtered`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of local vertices.
    pub fn len(&self) -> usize {
        self.orig.len()
    }

    /// Candidate adjacency row of local vertex `v` as a word slice.
    #[inline]
    pub fn cand(&self, v: usize) -> &[u64] {
        self.cand_adj.row(v)
    }

    /// True-graph adjacency row of local vertex `v` as a word slice.
    #[inline]
    pub fn gadj(&self, v: usize) -> &[u64] {
        self.g_adj.row(v)
    }

    /// Whether local vertices `v` and `w` are adjacent in the candidate graph.
    #[inline]
    pub fn cand_contains(&self, v: usize, w: usize) -> bool {
        self.cand_adj.contains(v, w)
    }

    /// Whether local vertices `v` and `w` are adjacent in the true graph.
    #[cfg(test)]
    pub fn gadj_contains(&self, v: usize, w: usize) -> bool {
        self.g_adj.contains(v, w)
    }

    /// Builds the local graph over `vertices` (in the given order) using the
    /// plain graph adjacency for both relations.
    #[cfg(test)]
    pub fn from_vertices(g: &Graph, vertices: &[VertexId]) -> Self {
        Self::from_vertices_filtered(g, vertices, |_| true)
    }

    /// Builds a fresh local graph over `vertices`; see
    /// [`LocalGraph::rebuild_filtered`] for `keep`.
    #[cfg(test)]
    pub fn from_vertices_filtered<F>(g: &Graph, vertices: &[VertexId], keep: F) -> Self
    where
        F: Fn(usize) -> bool,
    {
        let mut lg = Self::new();
        let mut position = vec![u32::MAX; g.n()];
        lg.rebuild_filtered(g, vertices, keep, &mut position);
        lg
    }

    /// Rebuilds this local graph in place over `vertices`, keeping in the
    /// *candidate* adjacency only those edges for which `keep(s)` returns
    /// `true`, where `s` is one of the edge's CSR slots ([`Graph::slot`]).
    /// The true adjacency always contains every edge of the input graph.
    ///
    /// `position` is caller-provided scratch of length `g.n()`, holding
    /// `u32::MAX` outside this call; it maps original ids to local ids so the
    /// rebuild walks adjacency lists (`O(Σ deg)`) instead of testing all
    /// `O(k²)` pairs with binary searches.
    pub fn rebuild_filtered<F>(
        &mut self,
        g: &Graph,
        vertices: &[VertexId],
        keep: F,
        position: &mut [u32],
    ) -> &mut Self
    where
        F: Fn(usize) -> bool,
    {
        debug_assert_eq!(position.len(), g.n());
        debug_assert!(position.iter().all(|&p| p == u32::MAX));
        let k = vertices.len();
        self.orig.clear();
        self.orig.extend_from_slice(vertices);
        self.g_adj.reset(k);
        self.cand_adj.reset(k);

        for (i, &v) in vertices.iter().enumerate() {
            position[v as usize] = i as u32;
        }
        for (i, &v) in vertices.iter().enumerate() {
            let first_slot = g.csr_offsets()[v as usize];
            for (s, &u) in (first_slot..).zip(g.neighbors(v)) {
                let j = position[u as usize];
                if j == u32::MAX || (j as usize) <= i {
                    continue; // not local, or the (j, i) direction handles it
                }
                let j = j as usize;
                self.g_adj.insert_sym(i, j);
                if keep(s) {
                    self.cand_adj.insert_sym(i, j);
                }
            }
        }
        for &v in vertices {
            position[v as usize] = u32::MAX;
        }
        self
    }

    /// Returns a copy of this local graph whose candidate adjacency
    /// additionally drops every edge for which `keep(u, v)` is `false`
    /// (`u`/`v` original ids). Used when descending another edge-oriented
    /// branching level: the sub-branch must exclude the sibling edges already
    /// processed at the current level. Allocates fresh buffers — this only
    /// runs in the shallow edge-oriented phase, never in the vertex-oriented
    /// steady state.
    pub fn restrict_candidate<F>(&self, keep: F) -> Self
    where
        F: Fn(VertexId, VertexId) -> bool,
    {
        let k = self.len();
        let mut cand_adj = AdjMatrix::new(k);
        for i in 0..k {
            for j in self.cand_adj.row_iter(i) {
                if j > i && keep(self.orig[i], self.orig[j]) {
                    cand_adj.insert_sym(i, j);
                }
            }
        }
        LocalGraph {
            orig: self.orig.clone(),
            g_adj: self.g_adj.clone(),
            cand_adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0-1-2-3 cycle plus chord (0,2).
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap()
    }

    #[test]
    fn from_vertices_builds_relabelled_adjacency() {
        let g = diamond();
        let lg = LocalGraph::from_vertices(&g, &[2, 0, 3]);
        assert_eq!(lg.len(), 3);
        assert_eq!(lg.orig, vec![2, 0, 3]);
        // local 0=orig2, 1=orig0, 2=orig3: edges (2,0),(2,3),(0,3) all exist.
        assert!(lg.gadj_contains(0, 1));
        assert!(lg.gadj_contains(0, 2));
        assert!(lg.gadj_contains(1, 2));
        for v in 0..lg.len() {
            assert_eq!(lg.cand(v), lg.gadj(v));
            assert_eq!(lg.gadj(v).len(), 1, "one word per row");
        }
    }

    #[test]
    fn filtered_construction_separates_candidate_from_graph_adjacency() {
        let g = diamond();
        // Drop the chord (0,2) from the candidate adjacency only.
        let chord = [g.slot(0, 2).unwrap(), g.slot(2, 0).unwrap()];
        let lg = LocalGraph::from_vertices_filtered(&g, &[0, 1, 2, 3], |s| !chord.contains(&s));
        assert_ne!(lg.cand(0), lg.gadj(0));
        assert_ne!(lg.cand(2), lg.gadj(2));
        assert_eq!(lg.cand(1), lg.gadj(1));
        assert!(lg.gadj_contains(0, 2));
        assert!(!lg.cand_contains(0, 2));
        assert!(lg.cand_contains(0, 1));
    }

    #[test]
    fn no_filtering_keeps_identical_rows() {
        let g = diamond();
        let lg = LocalGraph::from_vertices_filtered(&g, &[0, 1, 2], |_| true);
        for v in 0..lg.len() {
            assert_eq!(lg.cand(v), lg.gadj(v));
        }
    }

    #[test]
    fn restrict_candidate_composes_filters() {
        let g = Graph::complete(4);
        let edge01 = [g.slot(0, 1).unwrap(), g.slot(1, 0).unwrap()];
        let lg = LocalGraph::from_vertices_filtered(&g, &[0, 1, 2, 3], |s| !edge01.contains(&s));
        let lg2 = lg.restrict_candidate(|u, v| (u, v) != (2, 3) && (v, u) != (2, 3));
        // Both (0,1) and (2,3) are gone from the candidate adjacency…
        assert!(!lg2.cand_contains(0, 1));
        assert!(!lg2.cand_contains(2, 3));
        // …but the true adjacency still has them.
        assert!(lg2.gadj_contains(0, 1));
        assert!(lg2.gadj_contains(2, 3));
        // Untouched edges survive.
        assert!(lg2.cand_contains(0, 2));
    }

    #[test]
    fn rebuild_reuses_buffers_across_roots() {
        let g = Graph::complete(5);
        let mut position = vec![u32::MAX; g.n()];
        let mut lg = LocalGraph::new();
        lg.rebuild_filtered(&g, &[0, 1, 2, 3], |_| true, &mut position);
        assert_eq!(lg.len(), 4);
        assert!(lg.gadj_contains(0, 3));
        // Rebuild over a different (smaller) universe: stale bits must be gone.
        lg.rebuild_filtered(&g, &[4, 1], |_| true, &mut position);
        assert_eq!(lg.len(), 2);
        assert_eq!(lg.orig, vec![4, 1]);
        assert!(lg.gadj_contains(0, 1));
        assert_eq!(lg.cand(0), lg.gadj(0));
        // The position scratch is restored to all-MAX for the next rebuild.
        assert!(position.iter().all(|&p| p == u32::MAX));
    }

    #[test]
    fn empty_local_graph() {
        let g = Graph::complete(3);
        let lg = LocalGraph::from_vertices(&g, &[]);
        assert_eq!(lg.len(), 0);
    }
}
