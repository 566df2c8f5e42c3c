//! The enumeration engine: initial branching, vertex-oriented recursion
//! (with every pivot variant), edge-oriented recursion and their hybrid.
//!
//! A single [`Solver`] drives every named algorithm of the paper — the choice
//! of initial branching, pivot strategy, early-termination level and graph
//! reduction is all carried by [`SolverConfig`]. The engine follows the
//! two-phase structure of the paper's Algorithms 1–4:
//!
//! 1. **Root phase.** The universal branch `(∅, G, ∅)` is partitioned either
//!    vertex-wise (Eq. 1, over a chosen vertex ordering) or edge-wise
//!    (Eq. 2 + Eq. 3, over a chosen edge ordering). The graph reduction and
//!    the ordering form a `RootPlan`, shared by every worker of a run. The
//!    depth-1 truss presets stream it: a `PlanFeed` runs the truss peel a
//!    chunk of edges at a time, and root `r` runs as soon as the peel has
//!    removed edge `r`, since Eq. (2) only asks which edges were removed
//!    before it. A sequential run takes each root's `C`/`X` split from the
//!    peel's own walk. Every other plan is computed whole before the first
//!    root. Each root branch then extracts the relevant neighbourhood into a
//!    dense `LocalGraph` — bounded by the degeneracy δ (vertex roots) or the
//!    truss parameter τ (edge roots).
//! 2. **Recursive phase.** Inside the local graph the branch `(S, C, X)` is
//!    refined by vertex-oriented branching with pivoting (Algorithm 1), the
//!    `BK_Rcd` top-down rule, or — for hybrid depths `d ≥ 2` (Table IV) and
//!    EBBMC — further edge-oriented levels before switching. An edge level
//!    branches inside the root's local graph: it drops each edge it branches
//!    on from the candidate rows and puts them back when it is done.
//!
//! # Allocation-free hot path
//!
//! The recursive phase runs entirely inside per-worker scratch buffers: the
//! `(C, X)` sets and branch lists of a node at depth `d` live in frame `d` of
//! a depth-indexed `SearchScratch` arena, children are derived by fused
//! word-parallel kernels writing into frame `d + 1`, and the root-phase
//! `LocalGraph` matrices are rebuilt in place per root and edited in place by
//! the edge levels below it. Once the buffers have warmed up, steady-state
//! enumeration performs **zero heap allocations**, early-terminated branches
//! included: the emitter walks the complement into flat buffers of the same
//! arena. Use [`Solver::run_with_state`] to carry the warm buffers across
//! runs.
//!
//! Early termination (Section IV) and graph reduction are hooked into both
//! phases exactly as the paper describes: the t-plex test rides along the
//! pivot scan, and reduction-removed vertices act as permanent exclusion
//! members of every branch they touch.

use std::mem;
use std::ops::Range;
use std::time::{Duration, Instant};

use mce_graph::ordering::{edge_ordering, vertex_ordering, EdgeOrdering};
use mce_graph::truss::TrussPeel;
use mce_graph::{degeneracy_ordering, BitsRef, EdgeOrderingKind, Graph, VertexId};

use crate::budget::BudgetState;
use crate::config::{
    ConfigError, InitialBranching, PivotStrategy, RecursionStrategy, SolverConfig,
};
use crate::early_term::enumerate_plex_branch;
use crate::local::LocalGraph;
use crate::maxclique::{greedy_clique, TopKBound};
use crate::pivot::{plex_condition, scan_branch};
use crate::pool::{BranchTask, DonationSink, SeqKey, CHUNK};
use crate::reduction::{reduce, Reduction};
use crate::report::{CliqueReporter, CollectReporter, CountReporter};
use crate::scratch::{Frame, RootSplits, SearchScratch, SplitFrame, WorkerState};
use crate::stats::EnumerationStats;

/// Maximal clique enumeration driver for a fixed graph and configuration.
///
/// The global graph is the sparse CSR [`Graph`] (`O(n + m)` memory): the
/// root phase reads its degrees, sorted neighbour lists and adjacency. The
/// recursive phase never touches the global graph at all: it runs on the
/// per-root dense `LocalGraph`, whose size is bounded by δ or τ.
pub struct Solver<'g> {
    graph: &'g Graph,
    config: SolverConfig,
}

/// The root phase: graph reduction plus the vertex or edge ordering, shared
/// by all workers of a run. A streamed plan's edge ordering is ranked while
/// the run goes on (see [`PlanFeed`]); ranks below the feed's cursor are
/// final.
pub(crate) struct RootPlan {
    pub reduction: Reduction,
    pub kind: RootKind,
    /// Time [`Solver::prepare`] spent on the ordering: all of it for a whole
    /// plan, the support count for a streamed one.
    pub ordering_time: Duration,
}

/// The cursor over a plan's ranks, and the part of the plan still to be
/// computed. A streamed plan (the depth-1 truss presets) ranks its edges
/// with an incremental [`TrussPeel`], a chunk at a time; every other plan is
/// whole once [`Solver::prepare`] returns, and its feed only counts ranks
/// off.
pub(crate) struct PlanFeed<'g> {
    /// The peel of a streamed plan, dropped once it has ranked every edge.
    peel: Option<TrussPeel<'g>>,
    /// First rank not handed out yet.
    next: usize,
    total: usize,
    /// Wall time spent peeling so far.
    peel_time: Duration,
}

impl PlanFeed<'_> {
    /// Whether ranks are still to be computed.
    pub fn streams(&self) -> bool {
        self.peel.is_some()
    }

    /// Whether every rank was handed out.
    pub fn is_done(&self) -> bool {
        self.next == self.total
    }

    /// Wall time spent peeling so far, timed per chunk.
    pub fn peel_time(&self) -> Duration {
        self.peel_time
    }

    /// Hands out the next (up to) [`CHUNK`] ranks, in order. A streamed plan
    /// peels their edges first; with `splits`, the peel's walk records each
    /// root's `C`/`X` split there, so the root need not walk its edge again.
    pub fn advance(
        &mut self,
        plan: &RootPlan,
        mut splits: Option<&mut RootSplits>,
    ) -> Range<usize> {
        let ranks = self.next..(self.next + CHUNK).min(self.total);
        if let Some(splits) = splits.as_deref_mut() {
            splits.start(ranks.start);
        }
        if let Some(peel) = self.peel.as_mut() {
            let start = Instant::now();
            let RootKind::Edge { eo, .. } = &plan.kind else {
                unreachable!("only edge plans stream")
            };
            let removed = &plan.reduction.removed;
            for _ in ranks.clone() {
                let peeled = match splits.as_deref_mut() {
                    Some(splits) => {
                        let peeled =
                            peel.next(eo, |w, later| splits.push(w, later && !removed[w as usize]));
                        splits.end_root();
                        peeled
                    }
                    None => peel.next(eo, |_, _| {}),
                };
                debug_assert!(peeled.is_some(), "the peel ended before the plan");
            }
            if ranks.end == self.total {
                self.peel = None;
            }
            self.peel_time += start.elapsed();
        }
        self.next = ranks.end;
        ranks
    }
}

/// Which initial branching the plan's root tasks follow.
pub(crate) enum RootKind {
    /// Vertex-oriented roots (Eq. 1): one task per vertex, in order.
    Vertex {
        order: Vec<VertexId>,
        position: Vec<usize>,
    },
    /// Edge-oriented roots (Eq. 2): one task per edge, in order.
    Edge { eo: EdgeOrdering, depth: usize },
}

impl RootPlan {
    /// Number of independent root tasks (one per vertex or per edge).
    pub fn root_count(&self) -> usize {
        match &self.kind {
            RootKind::Vertex { order, .. } => order.len(),
            RootKind::Edge { eo, .. } => eo.len(),
        }
    }
}

/// Reusable enumeration state: the scratch arena, local-graph buffers and
/// root-phase vectors of one worker.
///
/// A fresh state starts empty and warms up during the first run; passing the
/// same state to [`Solver::run_with_state`] again lets subsequent runs reuse
/// every buffer, so repeated enumeration (serving workloads, benchmark loops)
/// stays allocation-free outside the ordering/reduction preprocessing.
#[derive(Clone, Debug, Default)]
pub struct EnumerationState {
    pub(crate) worker: WorkerState,
}

impl EnumerationState {
    /// Creates an empty state; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Donation state of one in-flight work item (a run of root ranks or a
/// resumed [`BranchTask`]): the sink to push split-off work to, the item's
/// sequencer slot and key, its decreasing donation counter, the branch-step
/// budget and the stack of currently splittable loops.
pub(crate) struct Donor<'a> {
    sink: &'a dyn DonationSink,
    slot: usize,
    key: &'a SeqKey,
    next_donation: u32,
    steps: u32,
    threshold: u32,
    /// The worker's split stack, lent for the item's duration.
    stack: Vec<SplitFrame>,
}

impl<'a> Donor<'a> {
    fn new(
        sink: &'a dyn DonationSink,
        slot: usize,
        key: &'a SeqKey,
        mut stack: Vec<SplitFrame>,
    ) -> Self {
        stack.clear();
        Donor {
            sink,
            slot,
            key,
            next_donation: u32::MAX,
            steps: 0,
            threshold: sink.step_threshold(),
            stack,
        }
    }

    /// Whether any work was donated.
    fn donated(&self) -> bool {
        self.next_donation != u32::MAX
    }
}

struct Ctx<'a> {
    config: SolverConfig,
    stats: EnumerationStats,
    reporter: &'a mut dyn CliqueReporter,
    /// `Some` only when a parallel worker runs with donation armed.
    donor: Option<Donor<'a>>,
    /// `Some` only when running inside a budgeted session.
    budget: Option<&'a BudgetState>,
    /// `Some` only on the sequential `TopKBySize` path
    /// ([`Solver::run_topk`]): observes every emitted clique size and prunes
    /// branches that cannot change the retained top-k.
    topk: Option<&'a mut TopKBound>,
}

impl<'a> Ctx<'a> {
    /// A context with no donor and no top-k bound.
    fn new(
        config: SolverConfig,
        reporter: &'a mut dyn CliqueReporter,
        budget: Option<&'a BudgetState>,
    ) -> Self {
        Ctx {
            config,
            stats: EnumerationStats::default(),
            reporter,
            donor: None,
            budget,
            topk: None,
        }
    }

    /// The run's statistics, its wall time since `start` all counted busy.
    fn finish(self, start: Instant) -> EnumerationStats {
        let mut stats = self.stats;
        stats.elapsed = start.elapsed();
        stats.busy_time = stats.elapsed;
        stats
    }

    fn report(&mut self, clique: &[VertexId]) {
        self.stats.maximal_cliques += 1;
        self.stats.max_clique_size = self.stats.max_clique_size.max(clique.len());
        if let Some(tb) = self.topk.as_deref_mut() {
            tb.observe(clique.len());
        }
        self.reporter.report(clique);
    }

    /// The `TopKBySize` bound check at one branch `(S, C, X)`: `true` when
    /// the branch cannot contain a clique large enough to change the
    /// retained top-k — first by the candidate count (`|S| + |C|`), then by
    /// the greedy-coloring upper bound on `C` — and was pruned (counted in
    /// [`EnumerationStats::branches_pruned_by_color`]). Always `false`
    /// outside a top-k run or before `k` cliques have been observed.
    fn topk_prunes(&mut self, lg: &LocalGraph, c: BitsRef<'_>, partial_len: usize) -> bool {
        let Some(tb) = self.topk.as_deref_mut() else {
            return false;
        };
        let Some(min) = tb.min_interesting() else {
            return false;
        };
        if partial_len.saturating_add(c.len()) < min {
            self.stats.branches_pruned_by_color += 1;
            return true;
        }
        let colors = tb.coloring.color_count(lg, c);
        if partial_len.saturating_add(colors) < min {
            self.stats.branches_pruned_by_color += 1;
            return true;
        }
        false
    }

    /// The `TopKBySize` core-number bound at root `rank`: `true` when no
    /// clique through the root can change the retained top-k, because a
    /// clique through `v` has at most `core(v) + 1` members. The root is
    /// then pruned (counted in
    /// [`EnumerationStats::branches_pruned_by_core`]). Always `false`
    /// outside a top-k run or before `k` cliques have been observed.
    fn topk_closes_root(&mut self, plan: &RootPlan, rank: usize) -> bool {
        let Some(tb) = self.topk.as_deref() else {
            return false;
        };
        let Some(min) = tb.min_interesting() else {
            return false;
        };
        let core = &tb.core;
        let bound = match &plan.kind {
            RootKind::Vertex { order, .. } => core[order[rank] as usize] + 1,
            RootKind::Edge { eo, .. } => {
                let (u, v) = eo.edge(rank);
                core[u as usize].min(core[v as usize]) + 1
            }
        };
        if bound < min {
            self.stats.branches_pruned_by_core += 1;
            return true;
        }
        false
    }

    /// Accounts one branch step against the session budget; `true` means the
    /// enclosing loop must abandon its frame and unwind. Free (a single
    /// `Option` check) when no budget is attached.
    #[inline]
    fn budget_step_abort(&mut self) -> bool {
        match self.budget {
            Some(b) if b.note_step() => {
                self.stats.terminated_by_budget += 1;
                true
            }
            _ => false,
        }
    }

    /// Whether the session was stopped, without consuming a branch step
    /// (used between whole work items, e.g. root ranks).
    #[inline]
    fn budget_stopped(&self) -> bool {
        self.budget.is_some_and(BudgetState::should_stop)
    }

    /// Registers a splittable branch loop at `depth`; returns its stack slot.
    fn begin_branch_loop(&mut self, depth: usize, partial_len: usize) -> Option<usize> {
        let donor = self.donor.as_mut()?;
        donor.stack.push(SplitFrame {
            depth,
            partial_len,
            next_idx: 0,
            donated: false,
        });
        Some(donor.stack.len() - 1)
    }

    /// Records that the loop in `slot` is about to recurse into
    /// `branch[next_idx - 1]`, leaving `branch[next_idx..]` unexplored.
    fn advance_branch_loop(&mut self, slot: Option<usize>, next_idx: usize) {
        if let (Some(slot), Some(donor)) = (slot, self.donor.as_mut()) {
            donor.stack[slot].next_idx = next_idx;
        }
    }

    /// Whether the loop in `slot` donated its remaining siblings (the loop
    /// must stop once its current recursion returns).
    fn branch_loop_donated(&self, slot: Option<usize>) -> bool {
        match (slot, &self.donor) {
            (Some(slot), Some(donor)) => donor.stack[slot].donated,
            _ => false,
        }
    }

    /// Unregisters the loop in `slot` (its frame is being unwound).
    fn end_branch_loop(&mut self, slot: Option<usize>) {
        if let (Some(slot), Some(donor)) = (slot, self.donor.as_mut()) {
            debug_assert_eq!(donor.stack.len(), slot + 1, "unbalanced split stack");
            donor.stack.truncate(slot);
        }
    }
}

impl<'g> Solver<'g> {
    /// Creates a solver after validating the configuration.
    pub fn new(graph: &'g Graph, config: SolverConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Solver { graph, config })
    }

    /// The configuration this solver runs with.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Enumerates every maximal clique of the graph, streaming them to
    /// `reporter`, and returns the run statistics.
    pub fn run(&self, reporter: &mut dyn CliqueReporter) -> EnumerationStats {
        let mut state = EnumerationState::new();
        self.run_with_state(&mut state, reporter)
    }

    /// Like [`Solver::run`], but reusing the caller's [`EnumerationState`]
    /// buffers: after the first (warming) run, repeated enumeration performs
    /// no steady-state heap allocations.
    pub fn run_with_state(
        &self,
        state: &mut EnumerationState,
        reporter: &mut dyn CliqueReporter,
    ) -> EnumerationStats {
        let (plan, mut feed) = self.prepare();
        self.run_sequential(
            &plan,
            &mut feed,
            &mut state.worker,
            None,
            reporter,
            &mut |_| {},
        )
    }

    // ------------------------------------------------------------------
    // Root phase
    // ------------------------------------------------------------------

    /// Computes the graph reduction and the root ordering, or for the
    /// depth-1 truss presets the start of a streamed ordering: the supports
    /// are counted, and the returned feed peels the edges as the run asks for
    /// them.
    pub(crate) fn prepare(&self) -> (RootPlan, PlanFeed<'g>) {
        let g = self.graph;
        let reduction = if self.config.graph_reduction {
            reduce(g)
        } else {
            Reduction::disabled(g.n())
        };
        let ordering_start = Instant::now();
        let mut peel = None;
        let kind = match self.config.initial {
            InitialBranching::Vertex(kind) => {
                let order = vertex_ordering(g, kind);
                let mut position = vec![0usize; g.n()];
                for (i, &v) in order.iter().enumerate() {
                    position[v as usize] = i;
                }
                RootKind::Vertex { order, position }
            }
            // Root r reads only which edges come before edge r. Deeper edge
            // levels sort their C–C edges by rank, so they need every rank
            // first; the other edge orders are sorts, not peels.
            InitialBranching::Edge {
                ordering: EdgeOrderingKind::Truss,
                depth: 1,
            } => {
                peel = Some(TrussPeel::new(g));
                RootKind::Edge {
                    eo: EdgeOrdering::unranked(g),
                    depth: 1,
                }
            }
            InitialBranching::Edge { ordering, depth } => RootKind::Edge {
                eo: edge_ordering(g, ordering),
                depth,
            },
        };
        let plan = RootPlan {
            reduction,
            kind,
            ordering_time: ordering_start.elapsed(),
        };
        let feed = PlanFeed {
            peel,
            next: 0,
            total: plan.root_count(),
            peel_time: Duration::ZERO,
        };
        (plan, feed)
    }

    /// The plan computed whole, as a parallel run's workers see it once the
    /// peel has published every rank.
    #[cfg(test)]
    pub(crate) fn whole_plan(&self) -> RootPlan {
        let (plan, mut feed) = self.prepare();
        while !feed.is_done() {
            feed.advance(&plan, None);
        }
        plan
    }

    /// A sequential run over the plan `feed` hands out: the rank-independent
    /// output, then chunk by chunk, the feed's next ranks. Each chunk of a
    /// streamed plan is peeled first, and its roots take their `C`/`X` split
    /// from the peel's walk. Between chunks the budget is checked, its
    /// deadline included, and `roots_done` hears how many roots the chunk
    /// ran.
    pub(crate) fn run_sequential(
        &self,
        plan: &RootPlan,
        feed: &mut PlanFeed<'_>,
        worker: &mut WorkerState,
        budget: Option<&BudgetState>,
        reporter: &mut dyn CliqueReporter,
        roots_done: &mut dyn FnMut(usize),
    ) -> EnumerationStats {
        let start = Instant::now();
        let mut ctx = Ctx::new(self.config, reporter, budget);
        self.run_chunks(plan, feed, worker, &mut ctx, roots_done);
        ctx.finish(start)
    }

    /// The loop of [`Solver::run_sequential`], under the caller's context.
    fn run_chunks(
        &self,
        plan: &RootPlan,
        feed: &mut PlanFeed<'_>,
        worker: &mut WorkerState,
        ctx: &mut Ctx<'_>,
        roots_done: &mut dyn FnMut(usize),
    ) {
        worker.prepare_for(self.graph.n());
        self.emit_static(plan, ctx);
        while !feed.is_done() && !ctx.budget.is_some_and(BudgetState::poll) {
            let mut ranks = feed.advance(plan, Some(&mut worker.splits));
            let first = ranks.start;
            self.run_ranks(plan, &mut ranks, worker, ctx);
            roots_done(ranks.start - first);
            if !ranks.is_empty() {
                break; // the budget stopped the run
            }
        }
        // The splits belong to this plan.
        worker.splits.start(0);
        ctx.stats.ordering_time += feed.peel_time();
    }

    /// Emits a plan's rank-independent output (graph reduction cliques,
    /// isolated vertices): the part of a run that precedes every rank.
    pub(crate) fn run_static(
        &self,
        plan: &RootPlan,
        reporter: &mut dyn CliqueReporter,
    ) -> EnumerationStats {
        let start = Instant::now();
        let mut ctx = Ctx::new(self.config, reporter, None);
        self.emit_static(plan, &mut ctx);
        ctx.finish(start)
    }

    /// Runs root ranks from the front of `ranks` over a prepared plan,
    /// advancing `ranks.start` past every rank it starts. The
    /// rank-independent output is [`Solver::run_static`]'s.
    ///
    /// With a `sink`, donation is armed: whenever the sink reports starving
    /// workers and this worker has invested at least the sink's step
    /// threshold in the current root, the unexplored siblings of the
    /// shallowest splittable frame are packaged into a [`BranchTask`] keyed by
    /// the run's first rank and pushed to `sink`. The call then returns right
    /// after the donating rank, so that rank's donations are sequenced after
    /// its own output and before the next rank's. The run also stops early
    /// when the budget stops the session; the ranks left in `ranks` were not
    /// started.
    pub(crate) fn run_on_plan(
        &self,
        plan: &RootPlan,
        ranks: &mut Range<usize>,
        worker: &mut WorkerState,
        sink: Option<&dyn DonationSink>,
        budget: Option<&BudgetState>,
        reporter: &mut dyn CliqueReporter,
    ) -> EnumerationStats {
        let start = Instant::now();
        let root_key = SeqKey::root();
        let donor = sink.map(|sink| {
            Donor::new(
                sink,
                ranks.start,
                &root_key,
                mem::take(&mut worker.split_stack),
            )
        });
        let mut ctx = Ctx::new(self.config, reporter, budget);
        ctx.donor = donor;
        worker.prepare_for(self.graph.n());
        self.run_ranks(plan, ranks, worker, &mut ctx);
        if let Some(donor) = ctx.donor.take() {
            worker.split_stack = donor.stack;
        }
        ctx.finish(start)
    }

    /// Runs root ranks from the front of `ranks` until they run out, the
    /// budget stops the session, or a rank donates.
    fn run_ranks(
        &self,
        plan: &RootPlan,
        ranks: &mut Range<usize>,
        worker: &mut WorkerState,
        ctx: &mut Ctx<'_>,
    ) {
        while ranks.start < ranks.end && !ctx.budget_stopped() {
            let rank = ranks.start;
            ranks.start += 1;
            if let Some(donor) = ctx.donor.as_mut() {
                donor.steps = 0;
            }
            self.run_root(plan, rank, worker, ctx);
            if ctx.donor.as_ref().is_some_and(Donor::donated) {
                break;
            }
        }
    }

    /// Resumes a stolen [`BranchTask`] through the same allocation-free
    /// recursion (further splits included): loads the task's `(C, X)` sets
    /// and branch list into frame 0 of the worker's arena, adopts its
    /// [`LocalGraph`] snapshot and partial clique, and re-enters the branch
    /// loop the donor abandoned. `key` is the task's sequence key (taken out
    /// of the task by the caller, which deposits the output under it).
    pub(crate) fn run_branch_task(
        &self,
        task: BranchTask,
        key: &SeqKey,
        worker: &mut WorkerState,
        sink: &dyn DonationSink,
        budget: Option<&BudgetState>,
        reporter: &mut dyn CliqueReporter,
    ) -> EnumerationStats {
        let start = Instant::now();
        let RecursionStrategy::Pivoting(strategy) = self.config.recursion else {
            unreachable!("donated tasks only exist under pivoting recursion")
        };
        let BranchTask {
            slot,
            partial: prefix,
            c,
            x,
            branch,
            lg: task_lg,
            ..
        } = task;
        let donor = Donor::new(sink, slot, key, mem::take(&mut worker.split_stack));
        let mut ctx = Ctx::new(self.config, reporter, budget);
        ctx.donor = Some(donor);
        worker.lg = task_lg;
        worker.scratch.load_root(&c, &x, &branch);
        worker.partial.clear();
        worker.partial.extend_from_slice(&prefix);
        let WorkerState {
            scratch,
            lg,
            partial,
            split_stack,
            ..
        } = worker;
        self.branch_on(lg, partial, 0, strategy, &mut ctx, scratch);
        if let Some(donor) = ctx.donor.take() {
            *split_stack = donor.stack;
        }
        ctx.stats.steals = 1;
        ctx.finish(start)
    }

    /// Runs an anchored query: streams exactly the maximal cliques of the
    /// graph that contain every vertex of `anchor` (which must be a
    /// non-empty clique of distinct vertices — the query layer validates
    /// this).
    ///
    /// Seeds `R` with the anchor, builds the anchor's common-neighbourhood
    /// subgraph once into the worker's [`LocalGraph`] and runs the configured
    /// recursion below it — no root phase, no graph reduction. Correctness:
    /// any vertex adjacent to every member of a clique `K ⊇ anchor` is
    /// adjacent to every anchor member and hence belongs to the common
    /// neighbourhood, so maximality inside the single branch `(anchor, C, ∅)`
    /// coincides with maximality in the full graph.
    pub(crate) fn run_anchored(
        &self,
        anchor: &[VertexId],
        worker: &mut WorkerState,
        budget: Option<&BudgetState>,
        reporter: &mut dyn CliqueReporter,
    ) -> EnumerationStats {
        let g = self.graph;
        let start = Instant::now();
        let mut ctx = Ctx::new(self.config, reporter, budget);
        worker.prepare_for(g.n());
        // Common neighbourhood of the anchor, walked from its smallest
        // adjacency list.
        let pivot = *anchor
            .iter()
            .min_by_key(|&&v| g.degree(v))
            .expect("anchored queries require a non-empty anchor");
        worker.candidates.clear();
        worker.excluded.clear();
        for &w in g.neighbors(pivot) {
            if !anchor.contains(&w) && anchor.iter().all(|&a| a == pivot || g.has_edge(a, w)) {
                worker.candidates.push(w);
            }
        }
        ctx.stats.anchored_roots_skipped = (g.n() - anchor.len() - worker.candidates.len()) as u64;
        ctx.stats.initial_branches = 1;
        build_root_branch(g, worker, |_, _, _| true);
        worker.partial.clear();
        worker.partial.extend_from_slice(anchor);
        let WorkerState {
            scratch,
            lg,
            partial,
            ..
        } = worker;
        self.dispatch(lg, partial, 0, 0, &mut ctx, scratch);
        ctx.finish(start)
    }

    /// Runs a `TopKBySize { k }` query sequentially with the bound
    /// machinery of [`crate::maxclique`] extended to top-k selection: the
    /// core-number bound closes roots, and the candidate-count and
    /// greedy-coloring upper bounds close branches that cannot contain a
    /// clique large enough to change the retained top-k (counted in
    /// `branches_pruned_by_core` / `branches_pruned_by_color`). Emission
    /// follows the deterministic sequential stream order, so the retained
    /// ranking — larger first, ties by arrival — is byte-identical to riding
    /// the full ordered enumeration through a
    /// [`TopKReporter`](crate::TopKReporter), with strictly fewer branch
    /// evaluations whenever any bound fires. Like the anchored, k-clique and
    /// maximum-clique paths the search is sequential; the query's thread
    /// count does not affect it.
    pub(crate) fn run_topk(
        &self,
        k: usize,
        worker: &mut WorkerState,
        budget: Option<&BudgetState>,
        reporter: &mut dyn CliqueReporter,
    ) -> EnumerationStats {
        let g = self.graph;
        let start = Instant::now();
        let (plan, mut feed) = self.prepare();
        // Core numbers bound every root: a clique through `v` has at most
        // core(v) + 1 members. For k == 1 the greedy clique along the
        // reverse degeneracy order seeds a proven size floor — the stream
        // contains a clique at least that large, and among equal sizes the
        // earlier arrival wins the tie.
        let deg = degeneracy_ordering(g);
        let seed_floor = if k == 1 {
            greedy_clique(g, &deg.order, &mut worker.partial);
            worker.partial.len()
        } else {
            0
        };
        let mut bound = TopKBound::new(k, seed_floor, deg.core);
        let mut ctx = Ctx::new(self.config, reporter, budget);
        ctx.topk = Some(&mut bound);
        self.run_chunks(&plan, &mut feed, worker, &mut ctx, &mut |_| {});
        ctx.finish(start)
    }

    /// The donation check, run once per branch step: after `threshold` steps,
    /// if anyone is starving, package the unexplored siblings of the
    /// *shallowest* splittable frame (the largest remaining piece of this
    /// subtree) into a self-contained task and push it to the pool. The
    /// donated loop is flagged so it stops once its current child returns.
    fn maybe_donate(
        &self,
        lg: &LocalGraph,
        partial: &[VertexId],
        ctx: &mut Ctx<'_>,
        scratch: &SearchScratch,
    ) {
        let Some(donor) = ctx.donor.as_mut() else {
            return;
        };
        donor.steps += 1;
        if donor.steps < donor.threshold || !donor.sink.hungry() {
            return;
        }
        for slot in 0..donor.stack.len() {
            let entry = donor.stack[slot];
            if entry.donated {
                continue;
            }
            debug_assert!(entry.next_idx > 0, "loop registered but never advanced");
            let f = scratch.frame(entry.depth);
            if entry.next_idx >= f.branch.len() {
                continue; // the current vertex is this loop's last
            }
            if !f.branch[entry.next_idx..]
                .iter()
                .any(|&w| f.c().contains(w))
            {
                continue;
            }
            // The loop is inside `branch[next_idx - 1]`'s subtree: in the
            // sequential order the donated siblings run *after* it finishes,
            // with the current vertex moved from C to X.
            let cur = f.branch[entry.next_idx - 1];
            let mut c = f.c().to_bitset();
            c.remove(cur);
            let mut x = f.x().to_bitset();
            x.insert(cur);
            let task = BranchTask {
                slot: donor.slot,
                key: donor.key.child(donor.next_donation),
                partial: partial[..entry.partial_len].to_vec(),
                c,
                x,
                branch: f.branch[entry.next_idx..].to_vec(),
                lg: lg.clone(),
            };
            donor.next_donation -= 1;
            donor.steps = 0;
            donor.stack[slot].donated = true;
            donor.sink.donate(task);
            ctx.stats.splits += 1;
            return;
        }
    }

    /// Emits the output that is independent of any root rank: the cliques
    /// reported by the graph reduction and — under edge-oriented branching —
    /// the isolated vertices of Eq. (3).
    fn emit_static(&self, plan: &RootPlan, ctx: &mut Ctx<'_>) {
        ctx.stats.ordering_time = plan.ordering_time;
        ctx.stats.gr_removed_vertices = plan.reduction.removed_count() as u64;
        for clique in &plan.reduction.cliques {
            ctx.stats.gr_cliques += 1;
            ctx.report(clique);
        }
        if matches!(plan.kind, RootKind::Edge { .. }) {
            for v in self.graph.vertices() {
                if self.graph.degree(v) == 0 && !plan.reduction.removed[v as usize] {
                    ctx.stats.initial_branches += 1;
                    ctx.report(&[v]);
                }
            }
        }
    }

    /// Processes one root task.
    fn run_root(&self, plan: &RootPlan, rank: usize, worker: &mut WorkerState, ctx: &mut Ctx<'_>) {
        if ctx.topk_closes_root(plan, rank) {
            return;
        }
        match &plan.kind {
            RootKind::Vertex { order, position } => {
                self.vertex_root(&plan.reduction, order, position, rank, worker, ctx)
            }
            RootKind::Edge { eo, depth } => {
                self.edge_root(&plan.reduction, eo, *depth, rank, worker, ctx)
            }
        }
    }

    /// Eq. (1): the root branch of the `rank`-th vertex of the ordering.
    fn vertex_root(
        &self,
        reduction: &Reduction,
        order: &[VertexId],
        position: &[usize],
        rank: usize,
        worker: &mut WorkerState,
        ctx: &mut Ctx<'_>,
    ) {
        let g = self.graph;
        let v = order[rank];
        if reduction.removed[v as usize] {
            return;
        }
        worker.candidates.clear();
        worker.excluded.clear();
        for &u in g.neighbors(v) {
            if reduction.removed[u as usize] || position[u as usize] < rank {
                worker.excluded.push(u);
            } else {
                worker.candidates.push(u);
            }
        }
        ctx.stats.initial_branches += 1;
        build_root_branch(g, worker, |_, _, _| true);
        worker.partial.clear();
        worker.partial.push(v);
        let WorkerState {
            scratch,
            lg,
            partial,
            ..
        } = worker;
        self.dispatch(lg, partial, 0, 0, ctx, scratch);
    }

    /// Eq. (2): the root branch of the `rank`-th edge of the ordering.
    fn edge_root(
        &self,
        reduction: &Reduction,
        eo: &EdgeOrdering,
        depth: usize,
        rank: usize,
        worker: &mut WorkerState,
        ctx: &mut Ctx<'_>,
    ) {
        let g = self.graph;
        let (u, v) = eo.edge(rank);
        if reduction.removed[u as usize] || reduction.removed[v as usize] {
            return;
        }
        let WorkerState {
            candidates,
            excluded,
            position,
            splits,
            ..
        } = worker;
        candidates.clear();
        excluded.clear();
        if let Some((c, x)) = splits.get(rank) {
            // The peel's walk at this rank already split the common
            // neighbours.
            candidates.extend_from_slice(c);
            excluded.extend_from_slice(x);
        } else {
            eo.for_each_common_neighbor(g, rank, position, |w, later| {
                if later && !reduction.removed[w as usize] {
                    candidates.push(w);
                } else {
                    excluded.push(w);
                }
            });
        }
        ctx.stats.initial_branches += 1;
        // Eq. (2): edges already processed at the root are removed from the
        // candidate graph of this branch. Only edges between two candidates
        // are tested: nothing reads a candidate edge with an end in X. When
        // edge levels follow, frame 0 lists the kept edges in rank order; a
        // plan deeper than one level is whole, so their ranks are final.
        let rank = rank as u32;
        worker.scratch.ensure(0);
        let mut edges = mem::take(&mut worker.scratch.frame_mut(0).edges);
        edges.clear();
        build_root_branch(g, worker, |s, a, b| {
            let edge_rank = eo.rank(s);
            if edge_rank > rank && depth > 1 {
                edges.push((edge_rank, a, b));
            }
            edge_rank > rank
        });
        edges.sort_unstable();
        worker.scratch.frame_mut(0).edges = edges;
        worker.partial.clear();
        worker.partial.push(u);
        worker.partial.push(v);
        let WorkerState {
            scratch,
            lg,
            partial,
            ..
        } = worker;
        self.dispatch(lg, partial, 0, depth - 1, ctx, scratch);
    }

    // ------------------------------------------------------------------
    // Recursive phase (arena-based: the node at depth `d` owns frame `d`)
    // ------------------------------------------------------------------

    fn dispatch(
        &self,
        lg: &mut LocalGraph,
        partial: &mut Vec<VertexId>,
        depth: usize,
        edge_levels: usize,
        ctx: &mut Ctx<'_>,
        scratch: &mut SearchScratch,
    ) {
        if edge_levels > 0 {
            // Nothing beneath an edge level is donated: the level goes on to
            // emit its later edges' cliques after a child returns, while a
            // donation from inside the child is sequenced after all of them.
            let donor = ctx.donor.take();
            self.edge_branch_step(lg, partial, depth, edge_levels, ctx, scratch);
            ctx.donor = donor;
            return;
        }
        match self.config.recursion {
            RecursionStrategy::Pivoting(strategy) => {
                self.pivot_rec(lg, partial, depth, strategy, ctx, scratch)
            }
            RecursionStrategy::Rcd => self.rcd_rec(lg, partial, depth, ctx, scratch),
        }
    }

    /// One edge-oriented branching level (Eq. 2 + Eq. 3) inside the root's
    /// local graph, whose frame lists the candidate edges between members of
    /// `C` in rank order.
    ///
    /// Before child `i` the level drops edge `i` from the candidate rows, so
    /// the child sees exactly the edges ranked after it (Eq. 2). The level
    /// puts every edge it dropped back before its Eq. (3) loop and before it
    /// returns, so its caller finds the rows as they were.
    fn edge_branch_step(
        &self,
        lg: &mut LocalGraph,
        partial: &mut Vec<VertexId>,
        depth: usize,
        edge_levels: usize,
        ctx: &mut Ctx<'_>,
        scratch: &mut SearchScratch,
    ) {
        ctx.stats.recursive_calls += 1;
        {
            let f = scratch.frame(depth);
            if f.c().is_empty() && f.x().is_empty() {
                ctx.report(partial);
                return;
            }
        }
        if ctx.topk_prunes(lg, scratch.frame(depth).c(), partial.len()) {
            return;
        }
        scratch.frame_mut(depth).branch_from_c();

        let mut dropped = 0;
        let mut aborted = false;
        while let Some(&(_, a, b)) = scratch.frame(depth).edges.get(dropped) {
            if ctx.budget_step_abort() {
                aborted = true;
                break;
            }
            lg.drop_cand(a, b);
            dropped += 1;
            {
                let (parent, child) = scratch.pair(depth);
                child.set_cap(parent.cap());
                let (pc, px) = (parent.c(), parent.x());
                let (mut cc, mut cx) = child.cx_mut();
                cc.assign_and_count(pc, lg.cand(a));
                cc.intersect_with_words(lg.cand(b));
                cx.copy_from(pc);
                cx.union_with_words(px.words());
                cx.intersect_with_words(lg.gadj(a));
                cx.intersect_with_words(lg.gadj(b));
                cx.difference_with_words(cc.as_ref().words());
                if edge_levels > 1 {
                    child.edges_within_c(&parent.edges[dropped..]);
                }
            }
            partial.push(lg.orig[a]);
            partial.push(lg.orig[b]);
            self.dispatch(lg, partial, depth + 1, edge_levels - 1, ctx, scratch);
            partial.truncate(partial.len() - 2);
        }
        for &(_, a, b) in &scratch.frame(depth).edges[..dropped] {
            lg.restore_cand(a, b);
        }
        if aborted {
            return;
        }

        // Eq. (3): candidates with no candidate edge can only extend S by themselves.
        let mut j = 0;
        while let Some(&w) = scratch.frame(depth).branch.get(j) {
            j += 1;
            if ctx.budget_step_abort() {
                return;
            }
            let f = scratch.frame(depth);
            if f.c().intersection_len_words(lg.cand(w)) == 0 {
                ctx.stats.recursive_calls += 1;
                let extendable = f.c().intersection_len_words(lg.gadj(w)) > 0
                    || f.x().intersection_len_words(lg.gadj(w)) > 0;
                if !extendable {
                    partial.push(lg.orig[w]);
                    ctx.report(partial);
                    partial.pop();
                }
            }
        }
    }

    /// Vertex-oriented branching with pivoting (Algorithm 1 with the strategy's
    /// pivot rule), plus the early-termination hook of Section IV.
    fn pivot_rec(
        &self,
        lg: &LocalGraph,
        partial: &mut Vec<VertexId>,
        depth: usize,
        strategy: PivotStrategy,
        ctx: &mut Ctx<'_>,
        scratch: &mut SearchScratch,
    ) {
        ctx.stats.recursive_calls += 1;
        let (c_len, x_empty) = {
            let f = scratch.frame(depth);
            if f.c().is_empty() {
                if f.x().is_empty() {
                    ctx.report(partial);
                }
                return;
            }
            (f.c().len(), f.x().is_empty())
        };
        if ctx.topk_prunes(lg, scratch.frame(depth).c(), partial.len()) {
            return;
        }
        let t = ctx.config.early_termination_t;
        let need_scan =
            t >= 1 || matches!(strategy, PivotStrategy::Classic | PivotStrategy::Refined);
        let scan = if need_scan {
            let f = scratch.frame(depth);
            Some(scan_branch(lg, f.c(), f.x()))
        } else {
            None
        };

        if let Some(scan) = &scan {
            if t >= 1 && plex_condition(scan, c_len, t) {
                ctx.stats.et_eligible += 1;
                if x_empty {
                    self.early_terminate(lg, depth, partial, ctx, scratch);
                    return;
                }
            }
        }

        match strategy {
            PivotStrategy::None => {
                scratch.frame_mut(depth).branch_from_c();
                self.branch_on(lg, partial, depth, strategy, ctx, scratch);
            }
            PivotStrategy::Classic => {
                let scan = scan.as_ref().expect("classic pivot requires a scan");
                prune_by_pivot_into(lg, scratch.frame_mut(depth), scan.pivot);
                self.branch_on(lg, partial, depth, strategy, ctx, scratch);
            }
            PivotStrategy::Refined => {
                let scan = scan.as_ref().expect("refined pivot requires a scan");
                if scan.dominated_by_exclusion {
                    return;
                }
                if let Some(u) = scan.universal_candidate {
                    // `u` is adjacent to every other candidate: it belongs to every
                    // maximal clique of this branch, so absorb it without branching.
                    {
                        let (parent, child) = scratch.pair(depth);
                        child.set_cap(parent.cap());
                        let (pc, px) = (parent.c(), parent.x());
                        let (mut cc, mut cx) = child.cx_mut();
                        cc.copy_from(pc);
                        cc.remove(u);
                        cx.copy_from(px);
                        cx.intersect_with_words(lg.gadj(u));
                    }
                    partial.push(lg.orig[u]);
                    self.pivot_rec(lg, partial, depth + 1, strategy, ctx, scratch);
                    partial.pop();
                    return;
                }
                prune_by_pivot_into(lg, scratch.frame_mut(depth), scan.pivot);
                self.branch_on(lg, partial, depth, strategy, ctx, scratch);
            }
            PivotStrategy::Factor => {
                self.factor_branching(lg, partial, depth, ctx, scratch);
            }
        }
    }

    /// Branches on every vertex of the frame's branch list, moving each to
    /// `X` afterwards.
    ///
    /// This loop is the parallel engine's donation point: it registers
    /// itself as a splittable frame, each iteration counts as one branch
    /// step, and when a (possibly deeper) [`Solver::maybe_donate`] gives this
    /// loop's remaining siblings away the loop stops after its current child
    /// returns — the thief continues exactly where the donor left off.
    fn branch_on(
        &self,
        lg: &LocalGraph,
        partial: &mut Vec<VertexId>,
        depth: usize,
        strategy: PivotStrategy,
        ctx: &mut Ctx<'_>,
        scratch: &mut SearchScratch,
    ) {
        let slot = ctx.begin_branch_loop(depth, partial.len());
        let mut i = 0;
        while let Some(&v) = scratch.frame(depth).branch.get(i) {
            i += 1;
            if !scratch.frame(depth).c().contains(v) {
                continue;
            }
            if ctx.budget_step_abort() {
                break;
            }
            ctx.advance_branch_loop(slot, i);
            self.maybe_donate(lg, partial, ctx, scratch);
            scratch.make_child(depth, lg, v);
            partial.push(lg.orig[v]);
            self.pivot_rec(lg, partial, depth + 1, strategy, ctx, scratch);
            partial.pop();
            if ctx.branch_loop_donated(slot) {
                break;
            }
            let mut f = scratch.frame_mut(depth).parts();
            f.c.remove(v);
            f.x.insert(v);
        }
        ctx.end_branch_loop(slot);
    }

    /// The `BK_Fac` loop (Algorithm 10): start from an arbitrary pivot and shrink
    /// the branching set whenever a processed vertex offers a smaller one.
    fn factor_branching(
        &self,
        lg: &LocalGraph,
        partial: &mut Vec<VertexId>,
        depth: usize,
        ctx: &mut Ctx<'_>,
        scratch: &mut SearchScratch,
    ) {
        {
            let f = scratch.frame_mut(depth);
            let Some(v0) = f.c().first() else { return };
            f.branch_from_c_and_not(lg.cand(v0));
        }
        while let Some(&u) = scratch.frame(depth).branch.first() {
            if ctx.budget_step_abort() {
                return;
            }
            if scratch.frame(depth).c().contains(u) {
                scratch.make_child(depth, lg, u);
                partial.push(lg.orig[u]);
                self.pivot_rec(lg, partial, depth + 1, PivotStrategy::Factor, ctx, scratch);
                partial.pop();
                let mut f = scratch.frame_mut(depth).parts();
                f.c.remove(u);
                f.x.insert(u);
            }
            let f = scratch.frame_mut(depth).parts();
            let c = f.c.as_ref();
            f.branch.retain(|&w| w != u && c.contains(w));
            f.alt.clear();
            c.and_not_collect(lg.cand(u), f.alt);
            if f.alt.len() < f.branch.len() {
                std::mem::swap(f.branch, f.alt);
            }
        }
    }

    /// The `BK_Rcd` recursion (Algorithm 9): keep branching on the minimum-degree
    /// candidate until the candidate graph becomes a clique, then report directly.
    fn rcd_rec(
        &self,
        lg: &LocalGraph,
        partial: &mut Vec<VertexId>,
        depth: usize,
        ctx: &mut Ctx<'_>,
        scratch: &mut SearchScratch,
    ) {
        ctx.stats.recursive_calls += 1;
        {
            let f = scratch.frame(depth);
            if f.c().is_empty() && f.x().is_empty() {
                ctx.report(partial);
                return;
            }
        }
        let t = ctx.config.early_termination_t;
        loop {
            if ctx.budget_step_abort() {
                return;
            }
            let (c_len, x_empty) = {
                let f = scratch.frame(depth);
                if f.c().is_empty() {
                    return;
                }
                (f.c().len(), f.x().is_empty())
            };
            if ctx.topk_prunes(lg, scratch.frame(depth).c(), partial.len()) {
                return;
            }
            let scan = {
                let f = scratch.frame(depth);
                scan_branch(lg, f.c(), f.x())
            };
            if t >= 1 && plex_condition(&scan, c_len, t) {
                ctx.stats.et_eligible += 1;
                if x_empty {
                    self.early_terminate(lg, depth, partial, ctx, scratch);
                    return;
                }
            }
            let candidate_is_clique =
                scan.candidate_matches_graph && scan.min_candidate_gdegree + 1 == c_len;
            if candidate_is_clique {
                if !scan.dominated_by_exclusion {
                    let before = partial.len();
                    for v in scratch.frame(depth).c().iter() {
                        partial.push(lg.orig[v]);
                    }
                    ctx.report(partial);
                    partial.truncate(before);
                }
                return;
            }
            let v = scan.min_degree_candidate;
            scratch.make_child(depth, lg, v);
            partial.push(lg.orig[v]);
            self.rcd_rec(lg, partial, depth + 1, ctx, scratch);
            partial.pop();
            let mut f = scratch.frame_mut(depth).parts();
            f.c.remove(v);
            f.x.insert(v);
        }
    }

    /// Ends the branch `(S, C, ∅)` at `depth`, whose `C` passed the t-plex
    /// check, by emitting its maximal cliques straight off the complement.
    fn early_terminate(
        &self,
        lg: &LocalGraph,
        depth: usize,
        partial: &mut Vec<VertexId>,
        ctx: &mut Ctx<'_>,
        scratch: &mut SearchScratch,
    ) {
        let (c, plex) = scratch.plex_parts(depth);
        let count = enumerate_plex_branch(lg, c, plex, partial, &mut |clique| ctx.report(clique));
        ctx.stats.et_terminated += 1;
        ctx.stats.et_cliques += count;
    }
}

/// Rebuilds the worker's local graph over `candidates ++ excluded`, keeping
/// the candidate edges that pass `keep_edge(slot, i, j)` (asked only about
/// edges between two candidates; see [`LocalGraph::rebuild`]), and fills
/// frame 0 of the arena with the root's `C`/`X` sets. Reuses every buffer.
/// Shared with the branch-and-bound engine in [`crate::maxclique`].
pub(crate) fn build_root_branch<F>(g: &Graph, worker: &mut WorkerState, keep_edge: F)
where
    F: FnMut(usize, usize, usize) -> bool,
{
    let WorkerState {
        scratch,
        lg,
        position,
        candidates,
        excluded,
        ..
    } = worker;
    lg.rebuild(g, candidates, excluded, keep_edge, position);
    let k = lg.len();
    scratch.ensure(0);
    let f0 = scratch.frame_mut(0);
    f0.reset(k);
    let mut c = f0.c_mut();
    for i in 0..candidates.len() {
        c.insert(i);
    }
    let mut x = f0.x_mut();
    for i in candidates.len()..k {
        x.insert(i);
    }
}

/// Fills the frame's branch list with the candidates that survive pruning by
/// the pivot's candidate neighbourhood.
fn prune_by_pivot_into(lg: &LocalGraph, f: &mut Frame, pivot: usize) {
    if pivot == usize::MAX {
        f.branch_from_c();
        return;
    }
    let row = if f.c().contains(pivot) {
        lg.cand(pivot)
    } else {
        lg.gadj(pivot)
    };
    f.branch_from_c_and_not(row);
}

// ----------------------------------------------------------------------
// Convenience entry points
// ----------------------------------------------------------------------

/// Enumerates every maximal clique of `g` under `config`, streaming cliques to
/// `reporter`. Panics on invalid configurations (use [`Solver::new`] for a
/// fallible API).
pub fn enumerate(
    g: &Graph,
    config: &SolverConfig,
    reporter: &mut dyn CliqueReporter,
) -> EnumerationStats {
    Solver::new(g, *config)
        .expect("invalid solver configuration")
        .run(reporter)
}

/// Enumerates and collects every maximal clique (each sorted ascending).
pub fn enumerate_collect(
    g: &Graph,
    config: &SolverConfig,
) -> (Vec<Vec<VertexId>>, EnumerationStats) {
    let mut reporter = CollectReporter::new();
    let stats = enumerate(g, config, &mut reporter);
    (reporter.into_sorted(), stats)
}

/// Counts the maximal cliques of `g` without materialising them.
pub fn count_maximal_cliques(g: &Graph, config: &SolverConfig) -> (u64, EnumerationStats) {
    let mut reporter = CountReporter::new();
    let stats = enumerate(g, config, &mut reporter);
    (reporter.count, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_maximal_cliques;
    use crate::verify::verify_cliques;

    fn all_presets() -> Vec<(&'static str, SolverConfig)> {
        SolverConfig::named_presets()
    }

    fn check_graph(g: &Graph) {
        let expected = naive_maximal_cliques(g);
        for (name, config) in all_presets() {
            let (got, stats) = enumerate_collect(g, &config);
            assert_eq!(
                got,
                expected,
                "{name} differs from reference on n={}",
                g.n()
            );
            assert_eq!(
                stats.maximal_cliques as usize,
                expected.len(),
                "{name} count"
            );
            assert!(verify_cliques(g, &got).is_empty(), "{name} verification");
        }
    }

    #[test]
    fn empty_and_trivial_graphs() {
        check_graph(&Graph::empty(0));
        check_graph(&Graph::empty(1));
        check_graph(&Graph::empty(4));
        check_graph(&Graph::from_edges(2, [(0, 1)]).unwrap());
    }

    #[test]
    fn paths_cycles_and_stars() {
        check_graph(&Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap());
        check_graph(
            &Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap(),
        );
        check_graph(&Graph::from_edges(6, (1..6).map(|v| (0, v))).unwrap());
    }

    #[test]
    fn complete_graphs() {
        for n in 1..=7 {
            check_graph(&Graph::complete(n));
        }
    }

    #[test]
    fn moon_moser_k9() {
        let mut edges = Vec::new();
        for u in 0..9u32 {
            for v in (u + 1)..9 {
                if u / 3 != v / 3 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(9, edges).unwrap();
        check_graph(&g);
        let (count, _) = count_maximal_cliques(&g, &SolverConfig::hbbmc_pp());
        assert_eq!(count, 27);
    }

    #[test]
    fn two_triangles_with_bridge() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (4, 6),
                (5, 3),
            ],
        )
        .unwrap();
        check_graph(&g);
    }

    #[test]
    fn clique_with_pendants_and_isolated_vertices() {
        let g = Graph::from_edges(
            9,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (0, 6),
            ],
        )
        .unwrap();
        // vertices 7, 8 isolated
        check_graph(&g);
    }

    #[test]
    fn hybrid_depths_agree_with_reference() {
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
        let expected = naive_maximal_cliques(&g);
        for d in 1..=4 {
            let (got, _) = enumerate_collect(&g, &SolverConfig::hbbmc_pp_depth(d));
            assert_eq!(got, expected, "depth {d}");
        }
    }

    #[test]
    fn et_levels_agree_with_reference() {
        let g = Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (5, 7),
                (4, 6),
                (7, 8),
                (8, 9),
                (7, 9),
            ],
        )
        .unwrap();
        let expected = naive_maximal_cliques(&g);
        for t in 0..=3 {
            let (got, stats) = enumerate_collect(&g, &SolverConfig::hbbmc_pp_et(t));
            assert_eq!(got, expected, "t = {t}");
            if t == 0 {
                assert_eq!(stats.et_terminated, 0);
            }
        }
    }

    #[test]
    fn stats_track_calls_and_branches() {
        let g = Graph::complete(6);
        let (_, stats) = enumerate_collect(&g, &SolverConfig::hbbmc_bare());
        assert!(stats.recursive_calls > 0);
        assert!(stats.initial_branches > 0);
        assert_eq!(stats.maximal_cliques, 1);
        assert_eq!(stats.max_clique_size, 6);
    }

    #[test]
    fn graph_reduction_reports_pendant_cliques() {
        // Star: every maximal clique is an edge; all leaves are simplicial.
        let g = Graph::from_edges(5, (1..5).map(|v| (0, v))).unwrap();
        let (got, stats) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
        assert_eq!(got.len(), 4);
        assert!(stats.gr_cliques > 0);
        assert!(stats.gr_removed_vertices > 0);
    }

    #[test]
    fn partitioned_runs_cover_all_cliques_exactly_once() {
        let g = Graph::from_edges(
            9,
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
                (7, 8),
            ],
        )
        .unwrap();
        let expected = naive_maximal_cliques(&g);
        let solver = Solver::new(&g, SolverConfig::hbbmc_pp()).unwrap();
        let plan = solver.whole_plan();
        let total = plan.root_count();
        let mut worker = WorkerState::new();
        for parts in [1usize, 2, 3, 5] {
            // Contiguous rank runs in reverse order, the first run carrying
            // the rank-independent output.
            let mut all = Vec::new();
            for part in (0..parts).rev() {
                let mut ranks = part * total / parts..(part + 1) * total / parts;
                let mut collector = CollectReporter::new();
                if part == 0 {
                    solver.run_static(&plan, &mut collector);
                }
                solver.run_on_plan(&plan, &mut ranks, &mut worker, None, None, &mut collector);
                assert!(ranks.is_empty(), "an unbudgeted run starts every rank");
                all.extend(collector.cliques);
            }
            all.sort();
            assert_eq!(all, expected, "parts = {parts}");
        }
    }

    #[test]
    fn run_with_state_reuses_buffers_across_runs() {
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (5, 7),
            ],
        )
        .unwrap();
        let solver = Solver::new(&g, SolverConfig::hbbmc_pp()).unwrap();
        let mut state = EnumerationState::new();
        let mut first = CollectReporter::new();
        solver.run_with_state(&mut state, &mut first);
        let mut second = CollectReporter::new();
        solver.run_with_state(&mut state, &mut second);
        assert_eq!(first.into_sorted(), second.into_sorted());
        // The warm state also works across different graphs.
        let g2 = Graph::complete(12);
        let solver2 = Solver::new(&g2, SolverConfig::hbbmc_pp()).unwrap();
        let mut third = CountReporter::new();
        solver2.run_with_state(&mut state, &mut third);
        assert_eq!(third.count, 1);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = Graph::complete(3);
        let mut cfg = SolverConfig::hbbmc_pp();
        cfg.early_termination_t = 9;
        assert!(Solver::new(&g, cfg).is_err());
    }
}
