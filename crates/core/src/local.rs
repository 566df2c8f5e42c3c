//! Working representation of a branch's vertex universe.
//!
//! After the initial (root) branching step the recursion only ever touches the
//! vertices of `C ∪ X` of that root branch. The crate-private `LocalGraph`
//! relabels them to a dense `0..k` id space, **candidates first**: local ids
//! `0..|C|` are the root's `C`, and `|C|..k` its `X`. Its adjacency is kept
//! as rows of contiguous [`AdjMatrix`] blocks, so that branch refinement
//! (`C ∩ N(v)`), pivot scoring and the early-termination check are all
//! word-parallel over cache-adjacent rows.
//!
//! Only the rows and columns a branch can read are stored — the subproblem
//! graph of Eppstein, Löffler and Strash, which keeps the edges with an
//! endpoint in `C`:
//!
//! * `g_adj` — the true adjacency of the input graph. A row of `C` covers
//!   `C ∪ X`; a row of `X` covers `C` only, `⌈|C|/64⌉` words. Nothing reads
//!   an edge between two `X` vertices: every reader of an `X` row (the
//!   pivot scan's exclusion loop, pruning by an exclusion pivot) intersects
//!   it with a candidate set, whose bits all lie below `|C|`. Used for
//!   maximality checking (moving vertices to `X`) and for the
//!   early-termination plex test.
//! * `cand_adj` — the *candidate* adjacency between candidates: `g_adj`
//!   minus the edges excluded by earlier sibling branches of an
//!   edge-oriented branching step (Eq. 2 of the paper removes processed
//!   edges from the candidate graph). Only rows of `C` exist, over `C`:
//!   every reader intersects them with a candidate set. When no edge has
//!   been excluded they agree with the `C` columns of the true rows.
//!
//! With `k = |C ∪ X|` a root therefore stores at most about `3·|C|·k` bits
//! plus its `k` ids, instead of two `k × k` matrices; a root with a huge `X`
//! and a small `C` (a hub whose neighbours were all ordered earlier) stays
//! small.
//!
//! A `LocalGraph` is designed to be **rebuilt in place**
//! (`LocalGraph::rebuild`): the per-worker enumeration state keeps one
//! instance whose buffers are reused across all root branches, so
//! steady-state root processing does not allocate. The rebuild walks the
//! neighbour lists of the candidates only.

use mce_graph::graph::SKEWED_LISTS;
use mce_graph::{AdjMatrix, Graph, VertexId};

/// Largest graph on which a debug build checks, at every
/// [`LocalGraph::rebuild`], that the whole position map is clean.
const FULL_POSITION_CHECK: usize = 1 << 12;

/// Dense local view of a branch's vertex universe (`C ∪ X` of the root
/// branch, candidates first).
#[derive(Clone, Debug, Default)]
pub(crate) struct LocalGraph {
    /// Local id → original vertex id: the candidates, then the exclusion
    /// vertices.
    pub orig: Vec<VertexId>,
    /// `|C|`: local ids below it are the root's candidates.
    c_len: usize,
    /// True adjacency rows of the candidates, over `C ∪ X`.
    c_rows: AdjMatrix,
    /// True adjacency rows of the exclusion vertices, over `C`.
    x_rows: AdjMatrix,
    /// Candidate adjacency rows of the candidates, over `C`.
    cand_adj: AdjMatrix,
}

impl LocalGraph {
    /// An empty local graph whose buffers can be reused via
    /// [`LocalGraph::rebuild`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of local vertices.
    pub fn len(&self) -> usize {
        self.orig.len()
    }

    /// Candidate adjacency row of the candidate `v` (a local id below
    /// `|C|`), over `C`.
    #[inline]
    pub fn cand(&self, v: usize) -> &[u64] {
        debug_assert!(v < self.c_len, "{v} is not a root candidate");
        self.cand_adj.row(v)
    }

    /// True-graph adjacency row of local vertex `v`: over `C ∪ X` for a
    /// candidate, over `C` for an exclusion vertex.
    #[inline]
    pub fn gadj(&self, v: usize) -> &[u64] {
        if v < self.c_len {
            self.c_rows.row(v)
        } else {
            self.x_rows.row(v - self.c_len)
        }
    }

    /// Whether the candidates `v` and `w` are adjacent in the candidate graph.
    #[inline]
    pub fn cand_contains(&self, v: usize, w: usize) -> bool {
        debug_assert!(v < self.c_len && w < self.c_len);
        self.cand_adj.contains(v, w)
    }

    /// Whether local vertices `v` and `w`, one of them a candidate, are
    /// adjacent in the true graph.
    #[cfg(test)]
    pub fn gadj_contains(&self, v: usize, w: usize) -> bool {
        let (v, w) = if v < self.c_len { (v, w) } else { (w, v) };
        self.c_rows.contains(v, w)
    }

    /// Builds the local graph over `vertices` (in the given order), all of
    /// them candidates, using the plain graph adjacency for both relations.
    #[cfg(test)]
    pub fn from_vertices(g: &Graph, vertices: &[VertexId]) -> Self {
        Self::from_vertices_filtered(g, vertices, |_| true)
    }

    /// Builds a fresh local graph over the candidates `vertices`; see
    /// [`LocalGraph::rebuild`] for `keep`.
    #[cfg(test)]
    pub fn from_vertices_filtered<F>(g: &Graph, vertices: &[VertexId], keep: F) -> Self
    where
        F: Fn(usize) -> bool,
    {
        let mut lg = Self::new();
        let mut position = vec![u32::MAX; g.n()];
        lg.rebuild(g, vertices, &[], keep, &mut position);
        lg
    }

    /// Rebuilds this local graph in place over `candidates ++ excluded`,
    /// keeping in the *candidate* adjacency only those edges between two
    /// candidates for which `keep(s)` returns `true`, where `s` is one of
    /// the edge's CSR slots ([`Graph::slot`]). `keep` is asked about no
    /// other edge. The true adjacency always contains every stored edge of
    /// the input graph.
    ///
    /// `position` is caller-provided scratch of length `g.n()`, holding
    /// `u32::MAX` outside this call; it maps original ids to local ids so the
    /// rebuild walks the candidates' adjacency lists (`O(Σ_{c ∈ C} deg c)`)
    /// instead of testing pairs with binary searches. Only a candidate whose
    /// list is more than [`SKEWED_LISTS`] times the local universe (a hub in
    /// a small root) searches the later local vertices in its list instead.
    pub fn rebuild<F>(
        &mut self,
        g: &Graph,
        candidates: &[VertexId],
        excluded: &[VertexId],
        keep: F,
        position: &mut [u32],
    ) -> &mut Self
    where
        F: Fn(usize) -> bool,
    {
        debug_assert_eq!(position.len(), g.n());
        let c = candidates.len();
        self.orig.clear();
        self.orig.extend_from_slice(candidates);
        self.orig.extend_from_slice(excluded);
        let k = self.orig.len();
        self.c_len = c;
        self.c_rows.reset(c, k);
        self.x_rows.reset(k - c, c);
        self.cand_adj.reset(c, c);

        // Scanning the whole map is O(n) per root, so debug builds do it
        // only on graphs small enough for that not to swamp the rebuild.
        debug_assert!(
            g.n() > FULL_POSITION_CHECK || position.iter().all(|&p| p == u32::MAX),
            "the position map holds a stale entry"
        );
        for (i, &v) in self.orig.iter().enumerate() {
            debug_assert_eq!(position[v as usize], u32::MAX, "{v} is stale or repeated");
            position[v as usize] = i as u32;
        }
        let LocalGraph {
            orig,
            c_rows,
            x_rows,
            cand_adj,
            ..
        } = self;
        // Records the edge from candidate `i` to the later local vertex `j`
        // at CSR slot `s`.
        let mut link = |i: usize, j: usize, s: usize| {
            if j < c {
                c_rows.insert_sym(i, j);
                if keep(s) {
                    cand_adj.insert_sym(i, j);
                }
            } else {
                c_rows.insert(i, j);
                x_rows.insert(j - c, i);
            }
        };
        for (i, &v) in candidates.iter().enumerate() {
            let (list, first_slot) = (g.neighbors(v), g.csr_offsets()[v as usize]);
            if list.len() / SKEWED_LISTS > k {
                // A hub among few local vertices: search them in its list.
                for (j, w) in orig.iter().enumerate().skip(i + 1) {
                    if let Ok(at) = list.binary_search(w) {
                        link(i, j, first_slot + at);
                    }
                }
                continue;
            }
            for (s, &u) in (first_slot..).zip(list) {
                // Not local, or the (j, i) direction handles it.
                let j = position[u as usize];
                if j != u32::MAX && j as usize > i {
                    link(i, j as usize, s);
                }
            }
        }
        for &v in &self.orig {
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
        let c = self.c_len;
        let mut cand_adj = AdjMatrix::new(c);
        for i in 0..c {
            for j in self.cand_adj.row_iter(i) {
                if j > i && keep(self.orig[i], self.orig[j]) {
                    cand_adj.insert_sym(i, j);
                }
            }
        }
        LocalGraph {
            orig: self.orig.clone(),
            c_len: c,
            c_rows: self.c_rows.clone(),
            x_rows: self.x_rows.clone(),
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
        lg.rebuild(&g, &[0, 1, 2, 3], &[], |_| true, &mut position);
        assert_eq!(lg.len(), 4);
        assert!(lg.gadj_contains(0, 3));
        // Rebuild over a different (smaller) universe: stale bits must be gone.
        lg.rebuild(&g, &[4, 1], &[], |_| true, &mut position);
        assert_eq!(lg.len(), 2);
        assert_eq!(lg.orig, vec![4, 1]);
        assert!(lg.gadj_contains(0, 1));
        assert_eq!(lg.cand(0), lg.gadj(0));
        // The position scratch is restored to all-MAX for the next rebuild.
        assert!(position.iter().all(|&p| p == u32::MAX));
    }

    /// Checks every stored bit of `lg`, built over `candidates ++ excluded`
    /// with the candidate filter `keep`, against the input graph.
    fn check_layout(
        g: &Graph,
        lg: &LocalGraph,
        candidates: &[VertexId],
        keep: impl Fn(usize) -> bool,
    ) {
        let c = candidates.len();
        let k = lg.len();
        let words = |bits: usize| bits.div_ceil(64);
        for a in 0..k {
            let row = lg.gadj(a);
            let span = if a < c { k } else { c };
            assert_eq!(
                row.len(),
                words(span),
                "row {a} covers C ∪ X for a candidate, C otherwise"
            );
            for b in 0..words(span) * 64 {
                let bit = row[b / 64] >> (b % 64) & 1 == 1;
                let edge = b < span && g.has_edge(lg.orig[a], lg.orig[b]);
                assert_eq!(bit, edge, "true bit ({a}, {b})");
            }
        }
        for a in 0..c {
            assert_eq!(lg.cand(a).len(), words(c));
            for b in 0..c {
                let (u, v) = (lg.orig[a], lg.orig[b]);
                let kept = g.slot(u, v).is_some_and(&keep);
                assert_eq!(lg.cand_contains(a, b), kept, "candidate bit ({a}, {b})");
            }
        }
    }

    #[test]
    fn candidates_come_first_and_exclusion_rows_cover_them_only() {
        let g = Graph::complete(5);
        let (candidates, excluded) = ([3, 1], [0, 4, 2]);
        let asked = std::cell::RefCell::new(Vec::new());
        let keep = |s| {
            asked.borrow_mut().push(s);
            true
        };
        let mut position = vec![u32::MAX; g.n()];
        let mut lg = LocalGraph::new();
        lg.rebuild(&g, &candidates, &excluded, keep, &mut position);
        assert_eq!(lg.orig, vec![3, 1, 0, 4, 2]);
        check_layout(&g, &lg, &candidates, |_| true);
        // The filter is asked about the one edge between two candidates.
        assert_eq!(*asked.borrow(), vec![g.slot(3, 1).unwrap()]);
        assert!(position.iter().all(|&p| p == u32::MAX));
        // No candidates: X rows are empty, whatever X holds.
        lg.rebuild(&g, &[], &[0, 1, 2, 3, 4], |_| true, &mut position);
        check_layout(&g, &lg, &[], |_| true);
    }

    #[test]
    fn hub_candidates_search_the_local_vertices() {
        // Hub 0 joined to 1..=300; the leaves 1, 2 and 3 also form a path.
        let edges = (1..=300).map(|v| (0, v)).chain([(1, 2), (2, 3)]);
        let g = Graph::from_edges(301, edges).unwrap();
        let drop = [g.slot(0, 2).unwrap(), g.slot(2, 0).unwrap()];
        let keep = |s: usize| !drop.contains(&s);
        let mut position = vec![u32::MAX; g.n()];
        let mut lg = LocalGraph::new();
        for (candidates, excluded) in [
            (&[2, 0][..], &[3, 1, 250][..]),
            (&[0, 3][..], &[299, 2][..]),
            (&[1, 2, 0][..], &[][..]),
        ] {
            lg.rebuild(&g, candidates, excluded, keep, &mut position);
            check_layout(&g, &lg, candidates, keep);
        }
    }

    #[test]
    fn empty_local_graph() {
        let g = Graph::complete(3);
        let lg = LocalGraph::from_vertices(&g, &[]);
        assert_eq!(lg.len(), 0);
    }
}
