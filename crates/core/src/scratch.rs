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
//! # Frame slab layout
//!
//! Each [`Frame`] stores its `C` and `X` rows in **one contiguous `Vec<u64>`
//! slab**: the `C` row starts at a 64-byte-aligned offset and the `X` row
//! follows at a stride rounded up to a whole number of cache lines (8 words).
//! The node's two hottest bit rows therefore live on adjacent cache lines
//! with no pointer chase between them, and `C`/`X` never share a line (no
//! false sharing between the intersect and exclusion kernels of one child
//! derivation). Rows are exposed as [`BitsRef`]/[`BitsMut`] views carrying
//! the exact `BitSet` word semantics; the branch/alt/edge lists stay separate
//! `Vec`s because their lengths are data-dependent.
//!
//! After [`Frame::set_cap`] changes the row geometry the row *contents* are
//! unspecified — every caller either fully rewrites both rows (the child
//! derivation) or explicitly resets them ([`Frame::reset`], the root loader).
//!
//! [`WorkerState`] bundles the arena with the root-phase buffers (the
//! candidate/exclusion splits, the dense [`LocalGraph`] whose adjacency
//! matrices are rebuilt in place per root, and the original-id → local-id
//! position map), so a whole enumeration run touches the allocator only while
//! warming up.

use mce_graph::{BitSet, BitsMut, BitsRef, VertexId};

use crate::early_term::PlexScratch;
use crate::local::LocalGraph;

const WORD_BITS: usize = 64;
/// Words per cache line; row strides are rounded up to this.
const LINE_WORDS: usize = 8;

/// Scratch buffers of one recursion depth. `C` and `X` live in one
/// cache-line-aligned slab (see the module docs); the vertex/edge lists are
/// plain `Vec`s.
#[derive(Clone, Debug, Default)]
pub(crate) struct Frame {
    /// The C/X slab: alignment padding, then the `C` row, then the `X` row.
    cx: Vec<u64>,
    /// Start offset (in words) of the `C` row within the slab.
    base: usize,
    /// Row stride in words (`live` rounded up to a cache line).
    row_words: usize,
    /// Live words per row: `cap.div_ceil(64)`, the `BitSet` invariant.
    live: usize,
    /// Capacity (universe size) of both rows.
    cap: usize,
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
    /// Capacity (universe size) of the frame's `C`/`X` rows.
    #[inline]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Adjusts the slab geometry for rows of capacity `cap`. Row contents are
    /// **unspecified** after a capacity change (callers fully rewrite or
    /// [`Frame::reset`]); a same-capacity call keeps the rows intact.
    pub fn set_cap(&mut self, cap: usize) {
        if cap == self.cap && !self.cx.is_empty() {
            return;
        }
        let live = cap.div_ceil(WORD_BITS);
        let row_words = live.div_ceil(LINE_WORDS).max(1) * LINE_WORDS;
        // Up to 7 leading words bring the C row to a 64-byte boundary.
        self.cx.resize(LINE_WORDS - 1 + 2 * row_words, 0);
        // align_offset counts elements; a u64 pointer is 8-byte aligned, so
        // the offset is always < 8 and fits the padding above. Alignment is a
        // performance property only — offsets stay valid if the Vec is ever
        // cloned onto a differently aligned allocation.
        let base = self.cx.as_ptr().align_offset(64).min(LINE_WORDS - 1);
        self.base = base;
        self.row_words = row_words;
        self.live = live;
        self.cap = cap;
    }

    /// [`Frame::set_cap`] followed by zeroing both rows — the slab analogue
    /// of `BitSet::reset` on `C` and `X`.
    pub fn reset(&mut self, cap: usize) {
        self.set_cap(cap);
        let end = self.base + self.row_words + self.live;
        self.cx[self.base..end].iter_mut().for_each(|w| *w = 0);
    }

    /// The candidate row `C` as a read-only view.
    #[inline]
    pub fn c(&self) -> BitsRef<'_> {
        BitsRef::new(&self.cx[self.base..self.base + self.live], self.cap)
    }

    /// The exclusion row `X` as a read-only view.
    #[inline]
    pub fn x(&self) -> BitsRef<'_> {
        let x0 = self.base + self.row_words;
        BitsRef::new(&self.cx[x0..x0 + self.live], self.cap)
    }

    /// The candidate row `C` as a mutable view.
    #[inline]
    pub fn c_mut(&mut self) -> BitsMut<'_> {
        BitsMut::new(&mut self.cx[self.base..self.base + self.live], self.cap)
    }

    /// The exclusion row `X` as a mutable view.
    #[inline]
    pub fn x_mut(&mut self) -> BitsMut<'_> {
        let x0 = self.base + self.row_words;
        BitsMut::new(&mut self.cx[x0..x0 + self.live], self.cap)
    }

    /// Both rows as simultaneous mutable views.
    #[inline]
    pub fn cx_mut(&mut self) -> (BitsMut<'_>, BitsMut<'_>) {
        let x0 = self.base + self.row_words;
        let (left, right) = self.cx.split_at_mut(x0);
        (
            BitsMut::new(&mut left[self.base..self.base + self.live], self.cap),
            BitsMut::new(&mut right[..self.live], self.cap),
        )
    }

    /// Rebuilds the branch list from the current contents of `C` (ascending
    /// local ids), reusing the list's allocation.
    #[inline]
    pub fn branch_from_c(&mut self) {
        let c = BitsRef::new(&self.cx[self.base..self.base + self.live], self.cap);
        self.branch.clear();
        self.branch.extend(c.iter());
    }

    /// Rebuilds the branch list as `C \ row` (the pivot-pruned candidate
    /// list), reusing the list's allocation.
    #[inline]
    pub fn branch_from_c_and_not(&mut self, row: &[u64]) {
        let c = BitsRef::new(&self.cx[self.base..self.base + self.live], self.cap);
        self.branch.clear();
        c.and_not_collect(row, &mut self.branch);
    }

    /// Rebuilds the edge list from `edges` (a parent level's later edges, in
    /// rank order), keeping those with both ends in `C`.
    pub fn edges_within_c(&mut self, edges: &[(u32, usize, usize)]) {
        let c = BitsRef::new(&self.cx[self.base..self.base + self.live], self.cap);
        self.edges.clear();
        self.edges.extend(
            edges
                .iter()
                .filter(|&&(_, a, b)| c.contains(a) && c.contains(b)),
        );
    }

    /// Splits the frame into disjoint mutable borrows of every buffer, for
    /// callers that mix row kernels with list edits in one pass.
    pub fn parts(&mut self) -> FrameParts<'_> {
        let x0 = self.base + self.row_words;
        let (left, right) = self.cx.split_at_mut(x0);
        FrameParts {
            c: BitsMut::new(&mut left[self.base..self.base + self.live], self.cap),
            x: BitsMut::new(&mut right[..self.live], self.cap),
            branch: &mut self.branch,
            alt: &mut self.alt,
        }
    }
}

/// Disjoint mutable borrows of one [`Frame`]'s buffers (see [`Frame::parts`]).
pub(crate) struct FrameParts<'a> {
    /// The candidate row `C`.
    pub c: BitsMut<'a>,
    /// The exclusion row `X`.
    pub x: BitsMut<'a>,
    /// The branch vertex list.
    pub branch: &'a mut Vec<usize>,
    /// The alternative branching list of `BK_Fac`.
    pub alt: &'a mut Vec<usize>,
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

    /// The candidate row of frame `depth` with the early-termination
    /// buffers, borrowed together for the emitter.
    #[inline]
    pub fn plex_parts(&mut self, depth: usize) -> (BitsRef<'_>, &mut PlexScratch) {
        (self.frames[depth].c(), &mut self.plex)
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
        f0.set_cap(c.capacity());
        f0.c_mut().copy_from(c.view());
        f0.x_mut().copy_from(x.view());
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
        child.set_cap(parent.cap());
        let (pc, px) = (parent.c(), parent.x());
        let (mut cc, mut cx) = child.cx_mut();
        let count = cc.assign_and_count(pc, lg.cand(v));
        cx.copy_from(pc);
        cx.union_with_words(px.words());
        cx.intersect_with_words(lg.gadj(v));
        cx.difference_with_words(cc.as_ref().words());
        count
    }

    /// The `C`-only child derivation of the branch-and-bound engine:
    /// `C' = C ∩ row`, returning `|C'|`. The child's `X` row is left
    /// untouched (the B&B recursion never reads it).
    #[inline]
    pub fn make_child_c(&mut self, depth: usize, row: &[u64]) -> usize {
        let (parent, child) = self.pair(depth);
        child.set_cap(parent.cap());
        let pc = parent.c();
        child.c_mut().assign_and_count(pc, row)
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
    fn frame_rows_share_one_slab_with_line_stride() {
        let mut f = Frame::default();
        f.reset(130); // 3 live words → stride 8
        assert_eq!(f.cap(), 130);
        assert_eq!(f.c().words().len(), 3);
        assert_eq!(f.x().words().len(), 3);
        let c0 = f.c().words().as_ptr() as usize;
        let x0 = f.x().words().as_ptr() as usize;
        assert_eq!(x0 - c0, 8 * 8, "X starts one cache-line stride after C");
        assert_eq!(c0 % 64, 0, "C row is cache-line aligned");
    }

    #[test]
    fn frame_reset_zeroes_and_set_cap_keeps_same_cap() {
        let mut f = Frame::default();
        f.reset(70);
        f.c_mut().insert(69);
        f.x_mut().insert(1);
        // Same capacity: rows intact.
        f.set_cap(70);
        assert!(f.c().contains(69) && f.x().contains(1));
        // Reset clears both rows.
        f.reset(70);
        assert!(f.c().is_empty() && f.x().is_empty());
    }

    #[test]
    fn frame_rows_have_bitset_out_of_range_contract() {
        let mut f = Frame::default();
        f.reset(70);
        let mut c = f.c_mut();
        assert!(!c.insert(70), "insert past cap is a no-op");
        assert!(!c.insert(1000));
        assert!(c.is_empty());
        assert!(!c.contains(70));
        assert!(!c.remove(70));
        assert!(c.insert(69));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn branch_from_c_lists_candidates_in_order() {
        let mut f = Frame::default();
        f.reset(100);
        for v in [70, 3, 65] {
            f.c_mut().insert(v);
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
        f0.reset(4);
        for v in [1, 2, 3] {
            f0.c_mut().insert(v);
        }
        f0.x_mut().insert(0);
        // Branch on local vertex 2: C' = {1, 3}, X' = {0} (0 adjacent to 2).
        let count = s.make_child(0, &lg, 2);
        assert_eq!(count, 2, "fused count is |C'|");
        assert_eq!(s.frame(1).c().iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(s.frame(1).x().iter().collect::<Vec<_>>(), vec![0]);
        // Parent frame is untouched.
        assert_eq!(s.frame(0).c().iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn make_child_c_intersects_without_touching_x() {
        let g = Graph::complete(3);
        let lg = LocalGraph::from_vertices(&g, &[0, 1, 2]);
        let mut s = SearchScratch::default();
        s.ensure(0);
        let f0 = s.frame_mut(0);
        f0.reset(3);
        for v in [0, 1, 2] {
            f0.c_mut().insert(v);
        }
        let count = s.make_child_c(0, lg.cand(0));
        assert_eq!(count, 2);
        assert_eq!(s.frame(1).c().iter().collect::<Vec<_>>(), vec![1, 2]);
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
        assert_eq!(s.frame(0).c().iter().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(s.frame(0).x().iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.frame(0).branch, vec![4, 1]);
        // Reloading reuses the frame and replaces its contents.
        s.load_root(&x, &c, &[2]);
        assert_eq!(s.frame(0).c().iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.frame(0).branch, vec![2]);
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
