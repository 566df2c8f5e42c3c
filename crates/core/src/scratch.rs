//! Reusable per-worker enumeration state: the depth-indexed scratch arena and
//! the root-phase buffers.
//!
//! The recursion of the paper's Algorithms 1–4 creates one `(C, X)` pair per
//! tree node. Allocating fresh `BitSet`s (and `Vec` branch lists) at every
//! node makes the hot loop allocator-bound; instead, each worker owns a
//! [`SearchScratch`] whose **frames are indexed by recursion depth**. A node
//! at depth `d` reads its branch sets from frame `d` and writes its child's
//! sets into frame `d + 1`; because siblings run sequentially, one frame per
//! depth is enough, and after the arena has grown to the deepest branch every
//! further node runs with **zero heap allocations**.
//!
//! [`WorkerState`] bundles the arena with the root-phase buffers (the
//! candidate/exclusion splits, the dense [`LocalGraph`] whose adjacency
//! matrices are rebuilt in place per root, and the original-id → local-id
//! position map), so a whole enumeration run touches the allocator only while
//! warming up.

use mce_graph::{BitSet, VertexId};

use crate::early_term::PlexScratch;
use crate::local::LocalGraph;

/// Scratch buffers of one recursion depth.
#[derive(Clone, Debug, Default)]
pub(crate) struct Frame {
    /// The candidate set `C`.
    pub c: BitSet,
    /// The exclusion set `X`.
    pub x: BitSet,
    /// Branch vertex list (pivot-pruned candidates, or the member list of an
    /// edge-oriented step).
    pub branch: Vec<usize>,
    /// Secondary vertex list (the alternative branching set of `BK_Fac`).
    pub alt: Vec<usize>,
    /// Candidate edges of an edge-oriented step in rank order:
    /// `(global rank, a, b)`. Only the edge root reads the ranks, to sort its
    /// list; a deeper level takes its list, already in order, from its
    /// parent's.
    pub edges: Vec<(u32, usize, usize)>,
}

impl Frame {
    /// Rebuilds the branch list from the current contents of `C` (ascending
    /// local ids), reusing the list's allocation.
    #[inline]
    pub fn branch_from_c(&mut self) {
        self.branch.clear();
        self.branch.extend(self.c.iter());
    }

    /// Rebuilds the branch list as `C \ row` (the pivot-pruned candidate
    /// list), reusing the list's allocation.
    #[inline]
    pub fn branch_from_c_and_not(&mut self, row: &[u64]) {
        self.branch.clear();
        self.c.and_not_collect(row, &mut self.branch);
    }

    /// Rebuilds the edge list from `edges` (a parent level's later edges, in
    /// rank order), keeping those with both ends in `C`.
    pub fn edges_within_c(&mut self, edges: &[(u32, usize, usize)]) {
        let c = &self.c;
        self.edges.clear();
        self.edges.extend(
            edges
                .iter()
                .filter(|&&(_, a, b)| c.contains(a) && c.contains(b)),
        );
    }
}

/// Depth-indexed arena of [`Frame`]s for one worker, plus the buffers of
/// the early-termination emitter.
#[derive(Clone, Debug, Default)]
pub(crate) struct SearchScratch {
    frames: Vec<Frame>,
    plex: PlexScratch,
}

impl SearchScratch {
    /// Immutable access to the frame at `depth` (must exist).
    #[inline]
    pub fn frame(&self, depth: usize) -> &Frame {
        &self.frames[depth]
    }

    /// Mutable access to the frame at `depth` (must exist).
    #[inline]
    pub fn frame_mut(&mut self, depth: usize) -> &mut Frame {
        &mut self.frames[depth]
    }

    /// The candidate set of frame `depth` with the early-termination
    /// buffers, borrowed together for the emitter.
    #[inline]
    pub fn plex_parts(&mut self, depth: usize) -> (&BitSet, &mut PlexScratch) {
        (&self.frames[depth].c, &mut self.plex)
    }

    /// Grows the arena so frames `0..=depth` exist.
    #[inline]
    pub fn ensure(&mut self, depth: usize) {
        if self.frames.len() <= depth {
            self.frames.resize_with(depth + 1, Frame::default);
        }
    }

    /// Splits the arena into the frames at `depth` and `depth + 1`, growing
    /// it as needed. The pair is how a node derives its child: read from the
    /// first, write into the second.
    #[inline]
    pub fn pair(&mut self, depth: usize) -> (&mut Frame, &mut Frame) {
        self.ensure(depth + 1);
        let (left, right) = self.frames.split_at_mut(depth + 1);
        (&mut left[depth], &mut right[0])
    }

    /// Loads frame 0 with an externally captured branch state (the resume
    /// path of a donated [`BranchTask`](crate::pool::BranchTask)): the
    /// `(C, X)` sets and the remaining branch list, reusing the frame's
    /// buffers.
    pub fn load_root(&mut self, c: &BitSet, x: &BitSet, branch: &[usize]) {
        debug_assert_eq!(c.capacity(), x.capacity());
        self.ensure(0);
        let f0 = self.frame_mut(0);
        f0.c.copy_from(c);
        f0.x.copy_from(x);
        f0.branch.clear();
        f0.branch.extend_from_slice(branch);
    }

    /// Fills frame `depth + 1` with the child branch obtained by moving local
    /// vertex `v` into the partial clique:
    /// `C' = C ∩ N_cand(v)`, `X' = ((C ∪ X) ∩ N_G(v)) \ C'`.
    ///
    /// Candidates that are graph-adjacent but candidate-non-adjacent to `v`
    /// (their edge was excluded by an edge-oriented ancestor) move to the
    /// exclusion side, preserving maximality checks against the original
    /// graph. Performs no heap allocation once the frame's buffers have grown
    /// to the branch size. Returns `|C'|` (free from the fused intersect
    /// kernel).
    #[inline]
    pub fn make_child(&mut self, depth: usize, lg: &LocalGraph, v: usize) -> usize {
        let (parent, child) = self.pair(depth);
        let count = parent.c.intersect_into_count(lg.cand(v), &mut child.c);
        child.x.copy_from(&parent.c);
        child.x.union_with_words(parent.x.words());
        child.x.intersect_with_words(lg.gadj(v));
        child.x.difference_with_words(child.c.words());
        count
    }

    /// The `C`-only child derivation of the branch-and-bound engine:
    /// `C' = C ∩ row`, returning `|C'|`. The child's `X` is left untouched
    /// (the B&B recursion never reads it).
    #[inline]
    pub fn make_child_c(&mut self, depth: usize, row: &[u64]) -> usize {
        let (parent, child) = self.pair(depth);
        parent.c.intersect_into_count(row, &mut child.c)
    }
}

/// Donation bookkeeping for one in-progress branch loop: which frame it owns,
/// how much of the partial clique belongs to it, and where its next
/// unexplored sibling sits in the frame's branch list. The donation check
/// walks these entries shallowest-first to find the largest donatable
/// remainder; see [`pool`](crate::pool).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SplitFrame {
    /// Recursion depth of the loop (index into the scratch arena).
    pub depth: usize,
    /// Length of the partial clique `R` when the loop started.
    pub partial_len: usize,
    /// Index into the frame's branch list of the next unexplored sibling;
    /// `branch[next_idx - 1]` is the vertex currently being recursed into.
    pub next_idx: usize,
    /// Whether this loop's remaining siblings have been donated — the loop
    /// must stop after its current vertex returns.
    pub donated: bool,
}

/// The complete reusable state of one enumeration worker.
#[derive(Clone, Debug, Default)]
pub(crate) struct WorkerState {
    /// Depth-indexed recursion arena.
    pub scratch: SearchScratch,
    /// Dense local view of the current root branch, rebuilt in place.
    pub lg: LocalGraph,
    /// Original-id → local-id scratch map (`u32::MAX` when unused); length is
    /// the input graph's vertex count. Edge roots and k-clique listing also
    /// lend it to [`mce_graph::Graph::for_each_common_neighbor`] as its mark
    /// array.
    pub position: Vec<u32>,
    /// Candidate vertices of the current root branch.
    pub candidates: Vec<VertexId>,
    /// Exclusion vertices of the current root branch.
    pub excluded: Vec<VertexId>,
    /// The growing partial clique `S` (original vertex ids).
    pub partial: Vec<VertexId>,
    /// The splittable branch loops of the current work item, lent to its
    /// donor so a warm worker allocates nothing per chunk or stolen task.
    pub split_stack: Vec<SplitFrame>,
    /// The C/X splits the truss peel recorded for the chunk of edge roots a
    /// sequential run is about to start.
    pub splits: RootSplits,
}

/// The C/X splits of a run of consecutive edge roots, recorded by the truss
/// peel's own common-neighbour walk as it removes each root's edge, so a
/// sequential run does not walk every edge's common neighbours twice.
#[derive(Clone, Debug, Default)]
pub(crate) struct RootSplits {
    /// Rank of the first recorded root.
    first: usize,
    /// Every recorded root's candidates, back to back.
    candidates: Vec<VertexId>,
    /// Every recorded root's excluded vertices, back to back.
    excluded: Vec<VertexId>,
    /// Per recorded root: where its candidates and its excluded vertices end.
    ends: Vec<(usize, usize)>,
}

impl RootSplits {
    /// Forgets every split; the next root recorded has rank `first`.
    pub fn start(&mut self, first: usize) {
        self.first = first;
        self.candidates.clear();
        self.excluded.clear();
        self.ends.clear();
    }

    /// Adds `w` to the root being recorded, as a candidate or as excluded.
    #[inline]
    pub fn push(&mut self, w: VertexId, candidate: bool) {
        if candidate {
            self.candidates.push(w);
        } else {
            self.excluded.push(w);
        }
    }

    /// Ends the root being recorded.
    pub fn end_root(&mut self) {
        self.ends.push((self.candidates.len(), self.excluded.len()));
    }

    /// The candidates and excluded vertices of root `rank`, if recorded.
    pub fn get(&self, rank: usize) -> Option<(&[VertexId], &[VertexId])> {
        let i = rank.checked_sub(self.first)?;
        let &(c_end, x_end) = self.ends.get(i)?;
        let (c_start, x_start) = match i {
            0 => (0, 0),
            _ => self.ends[i - 1],
        };
        Some((
            &self.candidates[c_start..c_end],
            &self.excluded[x_start..x_end],
        ))
    }
}

impl WorkerState {
    /// Fresh state; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the state for a run over a graph with `n` vertices. Every
    /// root build leaves the position map all-`u32::MAX`, so only a length
    /// change touches it: once the map has length `n` this is O(1), not the
    /// O(n) refill the parallel drivers would pay per chunk of roots.
    pub fn prepare_for(&mut self, n: usize) {
        debug_assert!(self.position.iter().all(|&p| p == u32::MAX));
        self.position.resize(n, u32::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::splitmix64;
    use mce_graph::Graph;

    #[test]
    fn ensure_grows_and_pair_splits() {
        let mut s = SearchScratch::default();
        s.ensure(3);
        assert!(s.frames.len() >= 4);
        let (a, b) = s.pair(3);
        a.branch.push(1);
        b.branch.push(2);
        assert_eq!(s.frame(3).branch, vec![1]);
        assert_eq!(s.frame(4).branch, vec![2]);
    }

    #[test]
    fn branch_from_c_lists_candidates_in_order() {
        let mut f = Frame::default();
        f.c.reset(100);
        for v in [70, 3, 65] {
            f.c.insert(v);
        }
        f.branch.push(999); // stale content is replaced
        f.branch_from_c();
        assert_eq!(f.branch, vec![3, 65, 70]);
    }

    #[test]
    fn make_child_matches_formula() {
        // Diamond: 0-1-2-3 cycle with chord (0,2).
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let lg = LocalGraph::from_vertices(&g, &[0, 1, 2, 3]);
        let mut s = SearchScratch::default();
        s.ensure(0);
        let f0 = s.frame_mut(0);
        f0.c.reset(4);
        f0.x.reset(4);
        for v in [1, 2, 3] {
            f0.c.insert(v);
        }
        f0.x.insert(0);
        // Branch on local vertex 2: C' = {1, 3}, X' = {0} (0 adjacent to 2).
        let count = s.make_child(0, &lg, 2);
        assert_eq!(count, 2, "fused count is |C'|");
        assert_eq!(s.frame(1).c.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(s.frame(1).x.iter().collect::<Vec<_>>(), vec![0]);
        // Parent frame is untouched.
        assert_eq!(s.frame(0).c.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn make_child_c_intersects_without_touching_x() {
        let g = Graph::complete(3);
        let lg = LocalGraph::from_vertices(&g, &[0, 1, 2]);
        let mut s = SearchScratch::default();
        s.ensure(0);
        let f0 = s.frame_mut(0);
        f0.c.reset(3);
        f0.x.reset(3);
        for v in [0, 1, 2] {
            f0.c.insert(v);
        }
        let count = s.make_child_c(0, lg.cand(0));
        assert_eq!(count, 2);
        assert_eq!(s.frame(1).c.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(s.frame(1).x, BitSet::default(), "X' is never written");
    }

    #[test]
    fn load_root_restores_a_captured_branch_state() {
        let mut s = SearchScratch::default();
        let mut c = BitSet::with_capacity(6);
        c.insert(1);
        c.insert(4);
        let mut x = BitSet::with_capacity(6);
        x.insert(0);
        s.load_root(&c, &x, &[4, 1]);
        assert_eq!(s.frame(0).c.iter().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(s.frame(0).x.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.frame(0).branch, vec![4, 1]);
        // Reloading reuses the frame and replaces its contents.
        s.load_root(&x, &c, &[2]);
        assert_eq!(s.frame(0).c.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.frame(0).branch, vec![2]);
    }

    /// Derives the child of frame `depth` on `v` and checks it against the
    /// formula, computed from the local graph's membership tests over the
    /// universe `0..k`.
    fn check_make_child(s: &mut SearchScratch, depth: usize, lg: &LocalGraph, v: usize, k: usize) {
        let (c, x) = (s.frame(depth).c.clone(), s.frame(depth).x.clone());
        let count = s.make_child(depth, lg, v);
        let want_c: Vec<usize> = c.iter().filter(|&w| lg.cand_contains(v, w)).collect();
        let want_x: Vec<usize> = (0..k)
            .filter(|&w| (c.contains(w) || x.contains(w)) && lg.gadj_contains(v, w))
            .filter(|w| !want_c.contains(w))
            .collect();
        let child = s.frame(depth + 1);
        assert_eq!(child.c.iter().collect::<Vec<_>>(), want_c, "C' at k = {k}");
        assert_eq!(child.x.iter().collect::<Vec<_>>(), want_x, "X' at k = {k}");
        assert_eq!(count, want_c.len());
        assert_eq!((child.c.capacity(), child.x.capacity()), (k, k));
        assert_eq!(child.c.words().len(), k.div_ceil(64));
        assert_eq!(child.x.words().len(), k.div_ceil(64));
    }

    #[test]
    fn frames_stay_exact_across_capacity_changes() {
        // One warm arena through local graphs whose sizes cross 64-bit word
        // boundaries both ways: every loaded or derived set is exactly the
        // formula's, over exactly the new universe, so no bit of a larger
        // graph survives into a smaller one.
        for seed in 0..16u64 {
            let mut s = SearchScratch::default();
            let mut draws = 0u64;
            let mut draw = || {
                draws += 1;
                splitmix64(seed << 32 | draws)
            };
            for k in [3usize, 70, 130, 64, 1, 200] {
                let g = mce_gen::erdos_renyi(k, k * k / 4, seed);
                // Root candidates first (vertex 0 always is one), and some
                // candidate edges dropped so N_cand(v) is smaller than N(v).
                let (cands, excl): (Vec<VertexId>, Vec<VertexId>) =
                    (0..k as VertexId).partition(|&v| v == 0 || draw() % 4 != 0);
                let mut lg = LocalGraph::new();
                let mut position = vec![u32::MAX; k];
                lg.rebuild(&g, &cands, &excl, |slot, _, _| slot % 5 != 0, &mut position);
                let mut c = BitSet::with_capacity(k);
                let mut x = BitSet::with_capacity(k);
                for v in 0..k {
                    match draw() % 3 {
                        0 if v < cands.len() => c.insert(v),
                        1 => x.insert(v),
                        _ => false,
                    };
                }
                let branch: Vec<usize> = c.iter().collect();
                s.load_root(&c, &x, &branch);
                assert_eq!((&s.frame(0).c, &s.frame(0).x), (&c, &x), "root at k = {k}");
                assert_eq!(s.frame(0).branch, branch);
                for &v in &branch {
                    check_make_child(&mut s, 0, &lg, v, k);
                    if let Some(w) = s.frame(1).c.first() {
                        check_make_child(&mut s, 1, &lg, w, k);
                    }
                    let count = s.make_child_c(0, lg.cand(v));
                    let want: Vec<usize> = c.iter().filter(|&w| lg.cand_contains(v, w)).collect();
                    assert_eq!(s.frame(1).c.iter().collect::<Vec<_>>(), want);
                    assert_eq!(count, want.len());
                    assert_eq!(s.frame(1).c.capacity(), k);
                }
            }
        }
    }

    #[test]
    fn worker_state_prepare_sizes_position_map() {
        let mut w = WorkerState::new();
        w.prepare_for(5);
        assert_eq!(w.position.len(), 5);
        assert!(w.position.iter().all(|&p| p == u32::MAX));
        w.prepare_for(3);
        assert_eq!(w.position.len(), 3);
    }
}
