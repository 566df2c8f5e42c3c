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
//!    (Eq. 2 + Eq. 3, over a chosen edge ordering). The orderings and the
//!    graph reduction are computed **once** into a `RootPlan`; each root
//!    branch then extracts the relevant neighbourhood into a dense
//!    `LocalGraph` — bounded by the degeneracy δ (vertex roots) or the truss
//!    parameter τ (edge roots).
//! 2. **Recursive phase.** Inside the local graph the branch `(S, C, X)` is
//!    refined by vertex-oriented branching with pivoting (Algorithm 1), the
//!    `BK_Rcd` top-down rule, or — for hybrid depths `d ≥ 2` (Table IV) —
//!    further edge-oriented levels before switching.
//!
//! # Allocation-free hot path
//!
//! The recursive phase runs entirely inside per-worker scratch buffers: the
//! `(C, X)` sets and branch lists of a node at depth `d` live in frame `d` of
//! a depth-indexed `SearchScratch` arena, children are derived by fused
//! word-parallel kernels writing into frame `d + 1`, and the root-phase
//! `LocalGraph` matrices are rebuilt in place per root. Once the buffers have
//! warmed up, steady-state enumeration performs **zero heap allocations**,
//! early-terminated branches included: the emitter walks the complement into
//! flat buffers of the same arena. Use [`Solver::run_with_state`] to carry
//! the warm buffers across runs.
//!
//! Early termination (Section IV) and graph reduction are hooked into both
//! phases exactly as the paper describes: the t-plex test rides along the
//! pivot scan, and reduction-removed vertices act as permanent exclusion
//! members of every branch they touch.

use std::mem;
use std::ops::Range;
use std::time::{Duration, Instant};

use mce_graph::ordering::{edge_ordering, vertex_ordering, EdgeOrdering};
use mce_graph::{degeneracy_ordering, BitsRef, Graph, VertexId};

use crate::budget::BudgetState;
use crate::config::{
    ConfigError, InitialBranching, PivotStrategy, RecursionStrategy, SolverConfig,
};
use crate::early_term::enumerate_plex_branch;
use crate::local::LocalGraph;
use crate::maxclique::{greedy_clique, TopKBound};
use crate::pivot::{plex_condition, scan_branch};
use crate::pool::{BranchTask, DonationSink, SeqKey};
use crate::reduction::{reduce, Reduction};
use crate::report::{CliqueReporter, CollectReporter, CountReporter};
use crate::scratch::{Frame, SearchScratch, SplitFrame, WorkerState};
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

/// The precomputed root phase: graph reduction plus the vertex or edge
/// ordering. Computed once per run (or once per parallel run, shared by all
/// workers) — recomputing it per worker used to dominate multi-threaded runs.
pub(crate) struct RootPlan {
    pub reduction: Reduction,
    pub kind: RootKind,
    pub ordering_time: Duration,
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
            RootKind::Edge { eo, .. } => eo.order.len(),
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

impl Ctx<'_> {
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
        let plan = self.prepare();
        self.run_on_plan(
            &plan,
            &mut (0..plan.root_count()),
            true,
            &mut state.worker,
            None,
            None,
            reporter,
        )
    }

    // ------------------------------------------------------------------
    // Root phase
    // ------------------------------------------------------------------

    /// Computes the graph reduction and the root ordering once.
    pub(crate) fn prepare(&self) -> RootPlan {
        let g = self.graph;
        let reduction = if self.config.graph_reduction {
            reduce(g)
        } else {
            Reduction::disabled(g.n())
        };
        let ordering_start = Instant::now();
        let kind = match self.config.initial {
            InitialBranching::Vertex(kind) => {
                let order = vertex_ordering(g, kind);
                let mut position = vec![0usize; g.n()];
                for (i, &v) in order.iter().enumerate() {
                    position[v as usize] = i;
                }
                RootKind::Vertex { order, position }
            }
            InitialBranching::Edge { ordering, depth } => RootKind::Edge {
                eo: edge_ordering(g, ordering),
                depth,
            },
        };
        RootPlan {
            reduction,
            kind,
            ordering_time: ordering_start.elapsed(),
        }
    }

    /// Runs root ranks from the front of `ranks` over a prepared plan,
    /// advancing `ranks.start` past every rank it starts. `with_static`
    /// selects whether this call also emits the rank-independent output
    /// (graph reduction cliques, isolated vertices) — exactly one call of a
    /// run must do so.
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_on_plan(
        &self,
        plan: &RootPlan,
        ranks: &mut Range<usize>,
        with_static: bool,
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
        let mut ctx = Ctx {
            config: self.config,
            stats: EnumerationStats::default(),
            reporter,
            donor,
            budget,
            topk: None,
        };
        worker.prepare_for(self.graph.n());
        if with_static {
            ctx.stats.ordering_time = plan.ordering_time;
            self.emit_static(plan, &mut ctx);
        }
        while ranks.start < ranks.end && !ctx.budget_stopped() {
            let rank = ranks.start;
            ranks.start += 1;
            if let Some(donor) = ctx.donor.as_mut() {
                donor.steps = 0;
            }
            self.run_root(plan, rank, worker, &mut ctx);
            if ctx.donor.as_ref().is_some_and(Donor::donated) {
                break;
            }
        }
        if let Some(donor) = ctx.donor.take() {
            worker.split_stack = donor.stack;
        }
        ctx.stats.elapsed = start.elapsed();
        ctx.stats.busy_time = ctx.stats.elapsed;
        ctx.stats
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
        let mut ctx = Ctx {
            config: self.config,
            stats: EnumerationStats::default(),
            reporter,
            donor: Some(donor),
            budget,
            topk: None,
        };
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
        ctx.stats.elapsed = start.elapsed();
        ctx.stats.busy_time = ctx.stats.elapsed;
        ctx.stats
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
        let mut ctx = Ctx {
            config: self.config,
            stats: EnumerationStats::default(),
            reporter,
            donor: None,
            budget,
            topk: None,
        };
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
        build_root_branch(g, worker, |_| true);
        worker.partial.clear();
        worker.partial.extend_from_slice(anchor);
        let WorkerState {
            scratch,
            lg,
            partial,
            ..
        } = worker;
        self.dispatch(lg, partial, 0, 0, None, &mut ctx, scratch);
        ctx.stats.elapsed = start.elapsed();
        ctx.stats.busy_time = ctx.stats.elapsed;
        ctx.stats
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
        let plan = self.prepare();
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
        let mut bound = TopKBound::new(k, seed_floor);
        let mut ctx = Ctx {
            config: self.config,
            stats: EnumerationStats::default(),
            reporter,
            donor: None,
            budget,
            topk: Some(&mut bound),
        };
        worker.prepare_for(g.n());
        ctx.stats.ordering_time = plan.ordering_time;
        self.emit_static(&plan, &mut ctx);
        for rank in 0..plan.root_count() {
            if ctx.budget_stopped() {
                break;
            }
            if let Some(min) = ctx.topk.as_deref().and_then(TopKBound::min_interesting) {
                let core_bound = match &plan.kind {
                    RootKind::Vertex { order, .. } => deg.core[order[rank] as usize] + 1,
                    RootKind::Edge { eo, .. } => {
                        let (u, v) = eo.order[rank];
                        deg.core[u as usize].min(deg.core[v as usize]) + 1
                    }
                };
                if core_bound < min {
                    ctx.stats.branches_pruned_by_core += 1;
                    continue;
                }
            }
            self.run_root(&plan, rank, worker, &mut ctx);
        }
        ctx.stats.elapsed = start.elapsed();
        ctx.stats.busy_time = ctx.stats.elapsed;
        ctx.stats
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
        build_root_branch(g, worker, |_| true);
        worker.partial.clear();
        worker.partial.push(v);
        let WorkerState {
            scratch,
            lg,
            partial,
            ..
        } = worker;
        self.dispatch(lg, partial, 0, 0, None, ctx, scratch);
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
        let (u, v) = eo.order[rank];
        if reduction.removed[u as usize] || reduction.removed[v as usize] {
            return;
        }
        let WorkerState {
            candidates,
            excluded,
            ..
        } = worker;
        candidates.clear();
        excluded.clear();
        eo.for_each_common_neighbor(g, rank, |w, later| {
            if later && !reduction.removed[w as usize] {
                candidates.push(w);
            } else {
                excluded.push(w);
            }
        });
        ctx.stats.initial_branches += 1;
        // Eq. (2): edges already processed at the root are removed from the
        // candidate graph of this branch.
        let rank = rank as u32;
        build_root_branch(g, worker, |s| eo.position[s] > rank);
        worker.partial.clear();
        worker.partial.push(u);
        worker.partial.push(v);
        let WorkerState {
            scratch,
            lg,
            partial,
            ..
        } = worker;
        self.dispatch(
            lg,
            partial,
            0,
            depth.saturating_sub(1),
            Some(eo),
            ctx,
            scratch,
        );
    }

    // ------------------------------------------------------------------
    // Recursive phase (arena-based: the node at depth `d` owns frame `d`)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        lg: &LocalGraph,
        partial: &mut Vec<VertexId>,
        depth: usize,
        edge_levels: usize,
        eo: Option<&EdgeOrdering>,
        ctx: &mut Ctx<'_>,
        scratch: &mut SearchScratch,
    ) {
        if edge_levels > 0 {
            if let Some(eo) = eo {
                self.edge_branch_step(lg, partial, depth, edge_levels, eo, ctx, scratch);
                return;
            }
        }
        match self.config.recursion {
            RecursionStrategy::Pivoting(strategy) => {
                self.pivot_rec(lg, partial, depth, strategy, ctx, scratch)
            }
            RecursionStrategy::Rcd => self.rcd_rec(lg, partial, depth, ctx, scratch),
        }
    }

    /// One edge-oriented branching level (Eq. 2 + Eq. 3) inside a local graph.
    ///
    /// Unlike the vertex-oriented steady state this step genuinely changes
    /// the candidate adjacency per child ([`LocalGraph::restrict_candidate`]),
    /// so it allocates fresh matrices; it only runs for the first
    /// `depth` levels of the tree (Table IV's `d ≤ 3`).
    #[allow(clippy::too_many_arguments)]
    fn edge_branch_step(
        &self,
        lg: &LocalGraph,
        partial: &mut Vec<VertexId>,
        depth: usize,
        edge_levels: usize,
        eo: &EdgeOrdering,
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

        // Members of C and their candidate edges, ordered by global position
        // (the branch inherits π_τ), collected into the frame's buffers.
        {
            let f = scratch.frame_mut(depth);
            f.branch_from_c();
            f.edges.clear();
            for (i, &a) in f.branch.iter().enumerate() {
                for &b in &f.branch[i + 1..] {
                    if lg.cand_contains(a, b) {
                        if let Some(s) = self.graph.slot(lg.orig[a], lg.orig[b]) {
                            f.edges.push((eo.position[s], a, b));
                        }
                    }
                }
            }
            f.edges.sort_unstable();
        }

        let mut i = 0;
        while let Some(&(pos, a, b)) = scratch.frame(depth).edges.get(i) {
            i += 1;
            if ctx.budget_step_abort() {
                return;
            }
            // Earlier sibling edges of this level (and the current one) are
            // excluded from the child's candidate graph (Eq. 2), so candidacy
            // must be evaluated against the restricted adjacency: a common
            // neighbour whose edge to `a` or `b` was already processed belongs
            // to the exclusion side.
            let child_lg = lg.restrict_candidate(|pu, pv| {
                self.graph
                    .slot(pu, pv)
                    .map_or(true, |s| eo.position[s] > pos)
            });
            {
                let (parent, child) = scratch.pair(depth);
                child.set_cap(parent.cap());
                let (pc, px) = (parent.c(), parent.x());
                let (mut cc, mut cx) = child.cx_mut();
                cc.assign_and_count(pc, child_lg.cand(a));
                cc.intersect_with_words(child_lg.cand(b));
                cx.copy_from(pc);
                cx.union_with_words(px.words());
                cx.intersect_with_words(lg.gadj(a));
                cx.intersect_with_words(lg.gadj(b));
                cx.difference_with_words(cc.as_ref().words());
            }
            partial.push(lg.orig[a]);
            partial.push(lg.orig[b]);
            self.dispatch(
                &child_lg,
                partial,
                depth + 1,
                edge_levels.saturating_sub(1),
                Some(eo),
                ctx,
                scratch,
            );
            partial.truncate(partial.len() - 2);
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
/// the candidate edges whose CSR slot passes `keep_edge`, and fills frame 0
/// of the arena with the root's `C`/`X` sets. Reuses every buffer.
/// Shared with the branch-and-bound engine in [`crate::maxclique`].
pub(crate) fn build_root_branch<F>(g: &Graph, worker: &mut WorkerState, keep_edge: F)
where
    F: Fn(usize) -> bool,
{
    let WorkerState {
        scratch,
        lg,
        position,
        candidates,
        excluded,
        vertices,
        ..
    } = worker;
    vertices.clear();
    vertices.extend_from_slice(candidates);
    vertices.extend_from_slice(excluded);
    lg.rebuild_filtered(g, vertices, keep_edge, position);
    let k = vertices.len();
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
        let plan = solver.prepare();
        let total = plan.root_count();
        let mut worker = WorkerState::new();
        for parts in [1usize, 2, 3, 5] {
            // Contiguous rank runs in reverse order, the first run carrying
            // the rank-independent output.
            let mut all = Vec::new();
            for part in (0..parts).rev() {
                let mut ranks = part * total / parts..(part + 1) * total / parts;
                let mut collector = CollectReporter::new();
                solver.run_on_plan(
                    &plan,
                    &mut ranks,
                    part == 0,
                    &mut worker,
                    None,
                    None,
                    &mut collector,
                );
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
