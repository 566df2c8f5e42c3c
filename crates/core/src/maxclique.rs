//! Dedicated branch-and-bound **maximum clique** engine.
//!
//! [`QuerySpec::MaximumClique`](crate::QuerySpec) used to ride the full
//! enumeration and keep the largest clique a [`MaximumCliqueReporter`] saw —
//! exponentially more work than a bounded search needs, since every maximal
//! clique of the graph was materialised. This module implements the classic
//! bounded search instead, on the same allocation-free scratch-arena and
//! local-graph machinery the enumeration uses. Like the enumeration, it
//! reads the global [`Graph`] only to order the roots and build each root's
//! dense local graph:
//!
//! 1. **Greedy lower bound** — one reverse-degeneracy-order pass builds an
//!    initial clique; its size seeds the incumbent `lb`.
//! 2. **Core-number bound** (Pattabiraman et al.) — every clique through `v`
//!    has at most `core(v) + 1` vertices, so a root with
//!    `core(v) + 1 ≤ lb` never opens, and candidates with that property are
//!    dropped from root candidate sets ([`EnumerationStats::branches_pruned_by_core`]).
//! 3. **Greedy-coloring upper bound** (San Segundo style, bit-parallel) — a
//!    branch whose candidate set colors with `k` colors cannot extend the
//!    partial clique by more than `k`, so `|R| + k ≤ lb` prunes the subtree
//!    ([`EnumerationStats::branches_pruned_by_color`]). When the coloring
//!    uses `|C|` colors the candidate graph is complete and the branch
//!    closes immediately with `R ∪ C` — the bound-machinery form of the
//!    paper's early-termination test (counted in
//!    [`EnumerationStats::et_terminated`]).
//!
//! # Canonical winner
//!
//! The engine returns the **canonical** maximum clique: among all maximum
//! cliques, the one whose ascending-sorted member list is lexicographically
//! smallest — the same winner [`MaximumCliqueReporter`] extracts from the
//! enumeration stream, so the two paths agree byte-for-byte. The search runs
//! in two phases: the bounded search above establishes the maximum size
//! `s*`, then a lexicographic descent (ascending vertex ids, pruned by the
//! same core and coloring bounds against the now-tight target `s*`) finds
//! the first — hence lexicographically smallest — clique of that size.
//!
//! # Budgets
//!
//! Both phases charge one budget step per branch step, honoring
//! [`Budget`](crate::Budget)/[`CancelToken`](crate::CancelToken) with the
//! enumeration's semantics: a truncated run returns the best clique found
//! so far and never claims optimality (the outcome is `Truncated`, and the
//! query layer reports `terminated_by_budget ≥ 1` for it as for every
//! truncated outcome). For a fixed step
//! budget the truncation point — and therefore the returned clique — is
//! deterministic. The search itself is sequential (like anchored and
//! k-clique queries); the thread count of a query does not affect it.
//!
//! [`MaximumCliqueReporter`]: crate::MaximumCliqueReporter
//! [`EnumerationStats::branches_pruned_by_core`]: crate::EnumerationStats::branches_pruned_by_core
//! [`EnumerationStats::branches_pruned_by_color`]: crate::EnumerationStats::branches_pruned_by_color
//! [`EnumerationStats::et_terminated`]: crate::EnumerationStats::et_terminated

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use mce_graph::{degeneracy_ordering, BitSet, Graph, VertexId};

use crate::budget::{BudgetState, Outcome};
use crate::local::LocalGraph;
use crate::scratch::{SearchScratch, WorkerState};
use crate::solver::build_root_branch;
use crate::stats::EnumerationStats;

/// Reusable state of the branch-and-bound engine: the worker buffers shared
/// with the enumeration (scratch arena, local graph, position map) plus the
/// two coloring bitsets. Steady-state searches over same-sized graphs do not
/// allocate once the buffers have grown.
#[derive(Debug, Default)]
pub struct MaxCliqueState {
    worker: WorkerState,
    /// Scratch of the greedy-coloring upper bound.
    coloring: ColoringScratch,
    /// Incumbent clique (original vertex ids, ascending).
    best: Vec<VertexId>,
}

/// Reusable scratch of the bit-parallel greedy coloring — the two bitsets the
/// class construction sweeps. Shared by the branch-and-bound engine and the
/// size bound of `TopKBySize` queries ([`TopKBound`]); steady-state colorings
/// over same-sized candidate sets do not allocate.
#[derive(Clone, Debug, Default)]
pub(crate) struct ColoringScratch {
    /// Vertices not yet assigned a color class.
    uncolored: BitSet,
    /// Vertices still assignable to the class currently being built.
    avail: BitSet,
}

impl ColoringScratch {
    /// Greedy coloring of `c` over the candidate adjacency of `lg`: returns
    /// the number of color classes — an upper bound on the largest clique
    /// inside `c`, and exactly `|c|` iff the candidate graph is complete.
    /// Each class is an independent set built by repeatedly taking the
    /// smallest still-available vertex and discarding its neighbours.
    pub(crate) fn color_count(&mut self, lg: &LocalGraph, c: &BitSet) -> usize {
        self.uncolored.copy_from(c);
        let mut colors = 0usize;
        while !self.uncolored.is_empty() {
            colors += 1;
            self.avail.copy_from(&self.uncolored);
            while let Some(v) = self.avail.first() {
                self.uncolored.remove(v);
                self.avail.remove(v);
                self.avail.difference_with_words(lg.cand(v));
            }
        }
        colors
    }
}

/// The pruning state of a `TopKBySize` query: the sizes of the `k` largest
/// cliques observed so far (a min-heap, so the current k-th size is the
/// peek), an optional seeded size floor, and the coloring scratch of the
/// upper bound. The enumeration observes every emitted clique through
/// [`TopKBound::observe`] and asks [`TopKBound::min_interesting`] before
/// opening a branch: a subtree whose size upper bound (candidate count, then
/// greedy-coloring count) falls below that threshold cannot change the
/// retained top-k — every clique under it either loses on size or ties with
/// an earlier-arrived retained clique and loses the tie — so it is skipped
/// and counted in `branches_pruned_by_color` / `branches_pruned_by_core`.
#[derive(Debug, Default)]
pub(crate) struct TopKBound {
    k: usize,
    /// Min-heap over the sizes of the `k` largest cliques observed so far.
    sizes: BinaryHeap<Reverse<usize>>,
    /// Cliques smaller than this can never rank: for `k == 1` the greedy
    /// lower bound witnesses a clique at least this large somewhere in the
    /// stream, so nothing smaller can be the single largest. Zero when no
    /// floor is proven (`k > 1`).
    seed_floor: usize,
    /// Scratch of the greedy-coloring upper bound.
    pub(crate) coloring: ColoringScratch,
    /// Every vertex's core number: a clique through `v` has at most
    /// `core[v] + 1` members.
    pub(crate) core: Vec<usize>,
}

impl TopKBound {
    /// A bound for a top-`k` query; `seed_floor` is zero or a proven size
    /// floor (see [`TopKBound::seed_floor`]), and `core` the graph's core
    /// numbers.
    pub(crate) fn new(k: usize, seed_floor: usize, core: Vec<usize>) -> Self {
        TopKBound {
            k,
            sizes: BinaryHeap::new(),
            seed_floor,
            coloring: ColoringScratch::default(),
            core,
        }
    }

    /// Records one emitted clique size (same retention rule as
    /// `TopKReporter`: sizes only, ties keep the incumbent).
    pub(crate) fn observe(&mut self, size: usize) {
        if self.k == 0 {
            return;
        }
        if self.sizes.len() < self.k {
            self.sizes.push(Reverse(size));
        } else if self.sizes.peek().is_some_and(|&Reverse(kth)| size > kth) {
            self.sizes.pop();
            self.sizes.push(Reverse(size));
        }
    }

    /// The smallest clique size that could still change the result: once `k`
    /// cliques are retained, anything not strictly larger than the k-th size
    /// loses (equal sizes lose the arrival tie-break), and anything below the
    /// seeded floor always loses. `None` while every size is still
    /// interesting (fewer than `k` cliques seen, no floor).
    pub(crate) fn min_interesting(&self) -> Option<usize> {
        if self.k == 0 {
            // Top-0 retains nothing; every branch is prunable.
            return Some(usize::MAX);
        }
        let full = (self.sizes.len() == self.k)
            .then(|| self.sizes.peek().map_or(0, |&Reverse(kth)| kth + 1));
        match (full, self.seed_floor) {
            (Some(f), s) if s > 0 => Some(f.max(s)),
            (Some(f), _) => Some(f),
            (None, s) if s > 0 => Some(s),
            (None, _) => None,
        }
    }
}

impl MaxCliqueState {
    /// Fresh state; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which bound machinery ended a branch-and-bound maximum-clique search.
///
/// Derived from the run's counters: a truncated outcome means the budget
/// ended the search; otherwise the search exhausted the tree and the bound
/// that closed the most branches is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminatingBound {
    /// The greedy-coloring upper bound closed the most branches.
    Color,
    /// The core-number bound closed the most branches.
    Core,
    /// The session budget (step limit, deadline or cancellation) truncated
    /// the search before exhaustion; the result is not claimed optimal.
    Budget,
    /// The tree was exhausted without any bound pruning (tiny inputs).
    Exhausted,
}

impl TerminatingBound {
    /// Classifies a finished run from its statistics and outcome.
    pub fn from_run(stats: &EnumerationStats, outcome: Outcome) -> Self {
        if outcome.is_truncated() {
            TerminatingBound::Budget
        } else if stats.branches_pruned_by_color == 0 && stats.branches_pruned_by_core == 0 {
            TerminatingBound::Exhausted
        } else if stats.branches_pruned_by_color >= stats.branches_pruned_by_core {
            TerminatingBound::Color
        } else {
            TerminatingBound::Core
        }
    }
}

impl std::fmt::Display for TerminatingBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TerminatingBound::Color => "color bound",
            TerminatingBound::Core => "core bound",
            TerminatingBound::Budget => "budget",
            TerminatingBound::Exhausted => "exhausted",
        })
    }
}

/// Returns the canonical maximum clique of `g` via branch and bound, with
/// the run's statistics (branch counts and the `branches_pruned_by_*` /
/// `lb_updates` pruning evidence).
pub fn maximum_clique_bb(g: &Graph) -> (Vec<VertexId>, EnumerationStats) {
    let mut state = MaxCliqueState::new();
    maximum_clique_bb_with_state(g, &mut state)
}

/// [`maximum_clique_bb`] with caller-owned reusable state: repeated searches
/// reuse every buffer (the allocation-free steady state the counting-
/// allocator gate checks).
pub fn maximum_clique_bb_with_state(
    g: &Graph,
    state: &mut MaxCliqueState,
) -> (Vec<VertexId>, EnumerationStats) {
    solve(g, state, None)
}

/// Grows a greedy clique along the reverse of `order` into `clique`
/// (original ids, ascending after the final sort): a cheap lower bound on the
/// maximum clique size. Seeds the incumbent of the branch-and-bound search
/// and the `k = 1` size floor of [`QuerySpec::TopKBySize`](crate::QuerySpec).
pub(crate) fn greedy_clique(g: &Graph, order: &[VertexId], clique: &mut Vec<VertexId>) {
    clique.clear();
    for &v in order.iter().rev() {
        if clique.iter().all(|&u| g.has_edge(u, v)) {
            clique.push(v);
        }
    }
    clique.sort_unstable();
}

/// The budgeted entry point the query engine routes
/// [`QuerySpec::MaximumClique`](crate::QuerySpec) through.
pub(crate) fn solve(
    g: &Graph,
    state: &mut MaxCliqueState,
    budget: Option<&BudgetState>,
) -> (Vec<VertexId>, EnumerationStats) {
    let start = Instant::now();
    let mut stats = EnumerationStats::default();
    let MaxCliqueState {
        worker,
        coloring,
        best,
    } = state;
    best.clear();
    if g.n() == 0 {
        stats.elapsed = start.elapsed();
        return (Vec::new(), stats);
    }

    let ordering_start = Instant::now();
    let deg = degeneracy_ordering(g);
    stats.ordering_time = ordering_start.elapsed();

    // Phase 0: greedy initial clique — the incumbent every bound prunes
    // against.
    greedy_clique(g, &deg.order, best);
    if !best.is_empty() {
        stats.lb_updates += 1;
    }

    worker.prepare_for(g.n());
    let mut bb = Bb {
        stats: &mut stats,
        budget,
        coloring,
        best,
        aborted: false,
    };

    // Phase 1: bounded search for the maximum size, over degeneracy-ordered
    // vertex roots (each root's candidate set is its later neighbourhood,
    // bounded by the degeneracy δ).
    for (rank, &v) in deg.order.iter().enumerate() {
        if bb.should_stop() {
            bb.aborted = true;
            break;
        }
        let lb = bb.best.len();
        if deg.core[v as usize] < lb {
            bb.stats.branches_pruned_by_core += 1;
            continue;
        }
        worker.candidates.clear();
        worker.excluded.clear();
        for &u in g.neighbors(v) {
            if deg.position[u as usize] > rank && deg.core[u as usize] + 1 > lb {
                worker.candidates.push(u);
            }
        }
        if worker.candidates.len() < lb {
            bb.stats.branches_pruned_by_color += 1;
            continue;
        }
        bb.stats.initial_branches += 1;
        build_root_branch(g, worker, |_, _, _| true);
        worker.partial.clear();
        worker.partial.push(v);
        let root_c_len = worker.candidates.len();
        let WorkerState {
            scratch,
            lg,
            partial,
            ..
        } = worker;
        bb.search_max(lg, scratch, partial, 0, root_c_len);
        if bb.aborted {
            break;
        }
    }

    // Phase 2: lexicographic descent for the canonical witness — the first
    // (hence lexicographically smallest) clique of the proven maximum size,
    // found by trying ascending vertex ids under the same bounds, now tight
    // against the target. Skipped when phase 1 was truncated: the incumbent
    // is then only a lower-bound witness and the outcome says so.
    if !bb.aborted && !bb.best.is_empty() {
        let target = bb.best.len();
        for v in 0..g.n() as VertexId {
            if bb.should_stop() {
                break;
            }
            if deg.core[v as usize] + 1 < target {
                bb.stats.branches_pruned_by_core += 1;
                continue;
            }
            worker.candidates.clear();
            worker.excluded.clear();
            for &u in g.neighbors(v) {
                if u > v && deg.core[u as usize] + 1 >= target {
                    worker.candidates.push(u);
                }
            }
            if 1 + worker.candidates.len() < target {
                bb.stats.branches_pruned_by_color += 1;
                continue;
            }
            bb.stats.initial_branches += 1;
            build_root_branch(g, worker, |_, _, _| true);
            worker.partial.clear();
            worker.partial.push(v);
            let root_c_len = worker.candidates.len();
            let WorkerState {
                scratch,
                lg,
                partial,
                ..
            } = worker;
            if bb.search_lex(lg, scratch, partial, 0, root_c_len, target) || bb.aborted {
                break;
            }
        }
    }

    stats.max_clique_size = best.len();
    stats.elapsed = start.elapsed();
    stats.busy_time = stats.elapsed;
    (best.clone(), stats)
}

/// The recursion context of one solve: counters, budget, coloring scratch
/// and the incumbent.
struct Bb<'a> {
    stats: &'a mut EnumerationStats,
    budget: Option<&'a BudgetState>,
    coloring: &'a mut ColoringScratch,
    best: &'a mut Vec<VertexId>,
    aborted: bool,
}

impl Bb<'_> {
    /// Polls the budget's latched stop signal (no step charged).
    fn should_stop(&self) -> bool {
        self.budget.is_some_and(|b| b.should_stop())
    }

    /// Charges one branch step; `true` means the search must unwind.
    fn step_aborts(&mut self) -> bool {
        match self.budget {
            Some(b) if b.note_step() => {
                self.stats.terminated_by_budget += 1;
                self.aborted = true;
                true
            }
            _ => false,
        }
    }

    /// Greedy-coloring upper bound over `c` (see
    /// [`ColoringScratch::color_count`]).
    fn color_count(&mut self, lg: &LocalGraph, c: &BitSet) -> usize {
        self.coloring.color_count(lg, c)
    }

    /// Phase-1 node: bounded descent maximising the clique size. Reads its
    /// candidate set from frame `depth`, writes children into `depth + 1`.
    fn search_max(
        &mut self,
        lg: &LocalGraph,
        scratch: &mut SearchScratch,
        partial: &mut Vec<VertexId>,
        depth: usize,
        c_len: usize,
    ) {
        self.stats.recursive_calls += 1;
        if c_len == 0 {
            if partial.len() > self.best.len() {
                self.best.clear();
                self.best.extend_from_slice(partial);
                self.best.sort_unstable();
                self.stats.lb_updates += 1;
            }
            return;
        }
        if partial.len() + c_len <= self.best.len() {
            self.stats.branches_pruned_by_color += 1;
            return;
        }
        let colors = self.color_count(lg, &scratch.frame(depth).c);
        if partial.len() + colors <= self.best.len() {
            self.stats.branches_pruned_by_color += 1;
            return;
        }
        if colors == c_len {
            // Complete candidate graph: R ∪ C is a clique, strictly larger
            // than the incumbent (the coloring bound just said so). This is
            // the early-termination test expressed through the bound
            // machinery: the branch closes without opening |C| children.
            self.stats.et_eligible += 1;
            self.stats.et_terminated += 1;
            let f = scratch.frame_mut(depth);
            f.branch_from_c();
            self.best.clear();
            self.best.extend_from_slice(partial);
            self.best.extend(f.branch.iter().map(|&i| lg.orig[i]));
            self.best.sort_unstable();
            self.stats.lb_updates += 1;
            return;
        }
        // Branch on every candidate in ascending local-id order (canonical),
        // removing each from C afterwards so later siblings exclude it.
        scratch.frame_mut(depth).branch_from_c();
        let mut remaining = c_len;
        for bi in 0..c_len {
            if self.step_aborts() {
                return;
            }
            if partial.len() + remaining <= self.best.len() {
                self.stats.branches_pruned_by_color += 1;
                return;
            }
            let v = scratch.frame(depth).branch[bi];
            let child_len = scratch.make_child_c(depth, lg.cand(v));
            partial.push(lg.orig[v]);
            self.search_max(lg, scratch, partial, depth + 1, child_len);
            partial.pop();
            if self.aborted {
                return;
            }
            scratch.frame_mut(depth).c.remove(v);
            remaining -= 1;
        }
    }

    /// Phase-2 node: lexicographic descent for the first clique of exactly
    /// `target` vertices. Returns `true` once found (the incumbent then
    /// holds the canonical witness). `partial` grows along ascending
    /// original ids (ascending local ids map to ascending original ids —
    /// candidates are pushed in sorted-neighbour order), so the first clique
    /// this DFS completes is the lexicographically smallest one.
    fn search_lex(
        &mut self,
        lg: &LocalGraph,
        scratch: &mut SearchScratch,
        partial: &mut Vec<VertexId>,
        depth: usize,
        c_len: usize,
        target: usize,
    ) -> bool {
        self.stats.recursive_calls += 1;
        if partial.len() == target {
            self.best.clear();
            self.best.extend_from_slice(partial);
            return true;
        }
        if partial.len() + c_len < target {
            self.stats.branches_pruned_by_color += 1;
            return false;
        }
        let colors = self.color_count(lg, &scratch.frame(depth).c);
        if partial.len() + colors < target {
            self.stats.branches_pruned_by_color += 1;
            return false;
        }
        if colors == c_len {
            // Complete candidate graph: the lexicographically smallest
            // completion takes the smallest `target - |R|` candidates.
            self.stats.et_eligible += 1;
            self.stats.et_terminated += 1;
            let f = scratch.frame_mut(depth);
            f.branch_from_c();
            let take = target - partial.len();
            self.best.clear();
            self.best.extend_from_slice(partial);
            self.best
                .extend(f.branch.iter().take(take).map(|&i| lg.orig[i]));
            return true;
        }
        scratch.frame_mut(depth).branch_from_c();
        let mut remaining = c_len;
        for bi in 0..c_len {
            if self.step_aborts() {
                return false;
            }
            if partial.len() + remaining < target {
                self.stats.branches_pruned_by_color += 1;
                return false;
            }
            let v = scratch.frame(depth).branch[bi];
            let child_len = scratch.make_child_c(depth, lg.cand(v));
            partial.push(lg.orig[v]);
            let found = self.search_lex(lg, scratch, partial, depth + 1, child_len, target);
            partial.pop();
            if found || self.aborted {
                return found;
            }
            scratch.frame_mut(depth).c.remove(v);
            remaining -= 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles_and_k4() -> Graph {
        // K4 on {4,5,6,7}, triangle on {0,1,2}, pendant 3.
        Graph::from_edges(
            8,
            vec![
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (5, 6),
                (5, 7),
                (6, 7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn finds_the_maximum_clique() {
        let g = two_triangles_and_k4();
        let (best, stats) = maximum_clique_bb(&g);
        assert_eq!(best, vec![4, 5, 6, 7]);
        assert_eq!(stats.max_clique_size, 4);
        assert!(stats.lb_updates >= 1);
    }

    #[test]
    fn tie_break_is_lexicographic() {
        // Two disjoint triangles; {1, 5, 8} sorts lexicographically before
        // {2, 3, 9} regardless of vertex degrees or stream order.
        let g =
            Graph::from_edges(10, vec![(5, 8), (1, 5), (1, 8), (2, 3), (3, 9), (2, 9)]).unwrap();
        let (best, _) = maximum_clique_bb(&g);
        assert_eq!(best, vec![1, 5, 8]);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::from_edges(0, Vec::new()).unwrap();
        assert_eq!(maximum_clique_bb(&g).0, Vec::<VertexId>::new());
        let g = Graph::from_edges(3, Vec::new()).unwrap();
        // A single vertex is a clique of size 1; vertex 0 is canonical.
        assert_eq!(maximum_clique_bb(&g).0, vec![0]);
    }

    #[test]
    fn greedy_clique_is_a_valid_bound() {
        let g = two_triangles_and_k4();
        let mut clique = Vec::new();
        greedy_clique(&g, &degeneracy_ordering(&g).order, &mut clique);
        assert!((1..=4).contains(&clique.len()));
        assert!(g.is_clique(&clique));
        assert!(clique.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
    }

    #[test]
    fn state_reuse_returns_identical_results() {
        let g = two_triangles_and_k4();
        let mut state = MaxCliqueState::new();
        let first = maximum_clique_bb_with_state(&g, &mut state);
        let second = maximum_clique_bb_with_state(&g, &mut state);
        assert_eq!(first.0, second.0);
        assert_eq!(
            first.1.recursive_calls, second.1.recursive_calls,
            "reused state must not change the search"
        );
    }

    #[test]
    fn terminating_bound_classification() {
        let mut stats = EnumerationStats::default();
        assert_eq!(
            TerminatingBound::from_run(&stats, Outcome::Complete),
            TerminatingBound::Exhausted
        );
        stats.branches_pruned_by_core = 3;
        assert_eq!(
            TerminatingBound::from_run(&stats, Outcome::Complete),
            TerminatingBound::Core
        );
        stats.branches_pruned_by_color = 3;
        assert_eq!(
            TerminatingBound::from_run(&stats, Outcome::Complete),
            TerminatingBound::Color
        );
    }
}
