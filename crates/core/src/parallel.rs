//! Parallel enumeration: one ordered worker loop over the shared task pool,
//! with chunked deposits and mid-branch work donation.
//!
//! The paper's algorithms are sequential, but its root branching step (Eq. 1 /
//! Eq. 2) produces a large number of independent branches, which is exactly
//! the structure that shared-memory parallel MCE implementations exploit.
//! Commands reach this engine only through an [`ExecSession`]: the session
//! owns the budget state the engine always runs under, and turns a contained
//! worker panic into a typed error. [`par_count_maximal_cliques`] and
//! [`par_enumerate_ordered_budgeted`] are thin wrappers over a session. Every
//! multi-threaded run goes through one engine on `std::thread::scope` scoped
//! threads:
//!
//! * The graph reduction and root ordering form one shared
//!   [`RootPlan`](crate::solver). The reduction and the rank-independent
//!   output come first, on the calling thread. A depth-1 truss preset's
//!   ordering is then streamed: worker 0 runs the truss peel and publishes
//!   each chunk of ranks to the pool as soon as their edges are peeled, then
//!   joins the others. Every other plan is whole before the workers start.
//! * Workers claim from one `TaskPool` (the crate-private `pool` module,
//!   built on `Mutex` + `Condvar` only): donated sub-branch tasks first, then
//!   chunks of 16 root ranks in rank order, below the published watermark.
//! * Each chunk is one solver call into one flat clique block, with donation
//!   armed: when the pool sees a starving worker, a worker that has spent a
//!   threshold of branch steps in its current root packages the unexplored
//!   siblings of its *shallowest* splittable frame into a self-contained task
//!   (in the spirit of Das et al.'s dynamic sub-branch distribution) and
//!   pushes it to the pool, where the starving worker steals it. Stolen tasks
//!   can be split again, so even a single giant root spreads over every idle
//!   worker, while inputs with many small roots pay the ordering once per
//!   chunk.
//! * Each worker owns a private scratch arena, so the recursion allocates
//!   nothing in steady state.
//!
//! # Sequencing
//!
//! A rank-plus-key sequencer reorders the workers' blocks into the sequential
//! stream. Its unit is a *slot*: a run of consecutive root ranks keyed by its
//! first rank. A chunk's ranks form one slot, unless a rank donates: that
//! rank closes its block, its donated parts — ordered by their `SeqKey` (the
//! `pool` module docs derive why key order equals the sequential emission
//! order) — are sequenced right after it, and the rest of the chunk continues
//! as a new slot. Donations are registered with the sequencer before their
//! task enters the pool, so "parts received = 1 + donations registered" is an
//! exact completeness test. The output stream is therefore byte-identical to
//! the sequential one at any thread count.
//!
//! Deposits never wait. Backpressure is applied when claiming: while more
//! than `SEQUENCER_BUFFER_CAP` (2¹⁶) cliques are parked out of order, the pool
//! hands out no new chunks, and the held-back worker counts as starving — so
//! the slow root at the head of the stream donates to it.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use mce_graph::{Graph, VertexId};

use crate::budget::{Budget, BudgetReporter, BudgetState, Outcome};
use crate::config::{ConfigError, SolverConfig};
use crate::pool::{BranchTask, DonationSink, PoolConfig, PoolWork, SeqKey, TaskPool};
use crate::query::{run_query, ExecSession, Query, QuerySpec, QueryValue};
use crate::report::{CliqueReporter, CountReporter};
use crate::scratch::WorkerState;
use crate::solver::{PlanFeed, RootPlan, Solver};
use crate::stats::EnumerationStats;

// ----------------------------------------------------------------------
// Fault containment
// ----------------------------------------------------------------------

/// A typed failure of a session's run. The configuration was validated at
/// admission, so a run can only fail by a fault.
///
/// The engine catches panics raised inside worker bodies (including
/// panics thrown by the caller's [`CliqueReporter`]): the first fault is
/// recorded, the sibling workers drain their remaining work without
/// executing it, the ordered stream stops at the deterministic prefix
/// emitted before the fault, and the run returns
/// [`EngineError::WorkerPanic`] instead of hanging the scope or poisoning
/// its locks.
#[derive(Debug)]
pub enum EngineError {
    /// A worker thread (or the reporter it drove) panicked mid-run.
    WorkerPanic {
        /// The panic payload, stringified (`&str` / `String` payloads are
        /// carried verbatim).
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic { detail } => {
                write!(f, "enumeration worker panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Runs `body` on the calling thread, turning a panic in it (or in the
/// reporter it drives) into [`EngineError::WorkerPanic`]: the containment
/// the worker fleet gives every work item, for the paths that run a
/// caller's reporter without spawning.
pub(crate) fn contain<T>(body: impl FnOnce() -> T) -> Result<T, EngineError> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|payload| EngineError::WorkerPanic {
        detail: panic_detail(payload.as_ref()),
    })
}

/// Stringifies a panic payload (the common `&str` / `String` cases verbatim).
fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// First-fault-wins panic collector shared by a worker fleet. Poison
/// recovery everywhere: a fault cell must stay usable precisely when
/// something already went wrong.
struct FaultCell(Mutex<Option<String>>);

impl FaultCell {
    fn new() -> Self {
        FaultCell(Mutex::new(None))
    }

    fn record_payload(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(panic_detail(payload.as_ref()));
        }
    }

    fn is_set(&self) -> bool {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    fn take(&self) -> Option<String> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

// ----------------------------------------------------------------------
// Progress observation
// ----------------------------------------------------------------------

/// Live counters of an in-flight enumeration, safe to poll from a monitoring
/// thread (e.g. the CLI's `--progress` reporter). All counters are updated
/// with relaxed atomics; they are informational and never synchronise the
/// enumeration itself.
#[derive(Debug, Default)]
pub struct ProgressCounters {
    /// Total number of root branches of the run (set once at startup).
    pub total_roots: AtomicU64,
    /// Root branches fully processed so far.
    pub roots_done: AtomicU64,
    /// Maximal cliques discovered so far (counted at discovery, which may
    /// run ahead of the ordered output stream).
    pub cliques_found: AtomicU64,
    /// Sub-branch tasks donated so far.
    pub splits: AtomicU64,
}

impl ProgressCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Worker-side view of the optional progress counters.
#[derive(Clone, Copy)]
struct ProgressHook<'a>(Option<&'a ProgressCounters>);

impl ProgressHook<'_> {
    fn roots_done(&self, roots: usize) {
        if let Some(p) = self.0 {
            p.roots_done.fetch_add(roots as u64, Ordering::Relaxed);
        }
    }

    fn cliques(&self, cliques: u64) {
        if let Some(p) = self.0 {
            p.cliques_found.fetch_add(cliques, Ordering::Relaxed);
        }
    }

    fn split(&self) {
        if let Some(p) = self.0 {
            p.splits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Pass-through reporter that counts every clique into the progress hook at
/// discovery time (so `--progress` style monitors tick even while one giant
/// root branch is still in flight, and before the sequencer emits it).
struct CountingReporter<'a, R: CliqueReporter + ?Sized> {
    inner: &'a mut R,
    hook: ProgressHook<'a>,
}

impl<R: CliqueReporter + ?Sized> CliqueReporter for CountingReporter<'_, R> {
    fn report(&mut self, clique: &[VertexId]) {
        self.hook.cliques(1);
        self.inner.report(clique);
    }
}

/// Counts maximal cliques using `threads` workers: a [`QuerySpec::Count`]
/// session. Returns the total count and the run statistics.
///
/// # Panics
///
/// On an invalid configuration, and with the worker's payload when a worker
/// panics.
pub fn par_count_maximal_cliques(
    g: &Graph,
    config: &SolverConfig,
    threads: usize,
) -> (u64, EnumerationStats) {
    let query = Query::new(QuerySpec::Count)
        .with_config(*config)
        .with_threads(threads);
    let result =
        run_query(g, query, &mut CountReporter::new()).expect("invalid solver configuration");
    let QueryValue::Count(count) = result.value else {
        unreachable!("a Count session yields a Count value")
    };
    (count, result.stats)
}

// ----------------------------------------------------------------------
// Deterministic ordered streaming
// ----------------------------------------------------------------------

/// The cliques of one work item — a run of root ranks or a stolen
/// sub-branch — in sequential recursion order, stored flat: every
/// clique's members back to back in `vertices`, clique `i` ending at
/// `ends[i]`. Filling a block costs two amortised pushes per clique instead
/// of one heap allocation, and the sequencer hands emitted blocks back to
/// depositors with their capacity intact.
#[derive(Debug, Default)]
struct CliqueBlock {
    vertices: Vec<VertexId>,
    ends: Vec<usize>,
}

impl CliqueBlock {
    /// Number of cliques in the block.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Empties the block, keeping both buffers' capacity.
    fn clear(&mut self) {
        self.vertices.clear();
        self.ends.clear();
    }

    /// The cliques in deposit order.
    fn cliques(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.vertices[start..end])
    }
}

impl CliqueReporter for CliqueBlock {
    fn report(&mut self, clique: &[VertexId]) {
        self.vertices.extend_from_slice(clique);
        self.ends.push(self.vertices.len());
    }
}

/// The parts of one sequencer slot collected so far. A slot is a run of
/// consecutive root ranks keyed by its first rank, plus the parts donated by
/// its last rank.
#[derive(Default)]
struct SlotParts {
    /// `(key, block, truncated)` deposits, unsorted until the slot
    /// completes. `truncated` marks a part whose work item was cut short by
    /// the session budget — its cliques are a prefix of that item's
    /// sequential contribution.
    parts: Vec<(SeqKey, CliqueBlock, bool)>,
    /// One past the slot's last rank: where the stream head moves once the
    /// slot is emitted. Set by the slot's own part only.
    end: usize,
    /// Donations registered for this slot. A slot is complete when
    /// `parts.len() == donations + 1` (the `+ 1` is the slot's own part);
    /// donations are registered *before* their task enters the pool, so the
    /// test is exact.
    donations: usize,
}

impl SlotParts {
    fn is_complete(&self) -> bool {
        self.parts.len() == self.donations + 1
    }
}

/// Reorders clique blocks arriving from any worker in any order into the
/// sequential stream: strict slot order, and within one slot the
/// donation-tree order encoded by [`SeqKey`].
struct Sequencer<'a, R: CliqueReporter + ?Sized> {
    /// First rank not yet emitted — always the first rank of a slot.
    next: usize,
    pending: BTreeMap<usize, SlotParts>,
    /// Total cliques currently parked in `pending` (the backpressure gauge).
    buffered_cliques: usize,
    /// Emitted blocks, emptied with their capacity intact, for depositors to
    /// refill.
    spare: Vec<CliqueBlock>,
    /// Whether a truncated part reached the stream head: the emitted bytes
    /// end at a clean budget cut and nothing later may follow (the
    /// sequential stream has a gap from that point on).
    closed: bool,
    /// First panic thrown by `out` during emission, if any. Set under the
    /// sequencer lock *instead of* letting the unwind poison it, so sibling
    /// depositors keep draining; the driver converts it into a typed
    /// [`EngineError::WorkerPanic`].
    fault: Option<String>,
    out: &'a mut R,
}

impl<'a, R: CliqueReporter + ?Sized> Sequencer<'a, R> {
    fn new(out: &'a mut R) -> Self {
        Sequencer {
            next: 0,
            pending: BTreeMap::new(),
            buffered_cliques: 0,
            spare: Vec::new(),
            closed: false,
            fault: None,
            out,
        }
    }

    /// Records that the slot starting at `slot` will receive one more part
    /// than previously known.
    fn register_donation(&mut self, slot: usize) {
        self.pending.entry(slot).or_default().donations += 1;
    }

    /// An empty block to fill with the next work item: an emitted one when
    /// available, so steady-state runs stop allocating blocks.
    fn spare_block(&mut self) -> CliqueBlock {
        self.spare.pop().unwrap_or_default()
    }

    /// Adds one part of the slot starting at rank `slot` and emits every
    /// now-complete head slot. The slot's own part brings `end`, one past the
    /// slot's last rank; donated parts pass `None` and leave it alone. A part
    /// marked `truncated` was cut short by the session budget: once it reaches
    /// the stream head its (prefix) cliques are emitted and the stream closes
    /// — everything later is discarded, keeping the output an exact
    /// byte-prefix of the full deterministic stream.
    fn deposit(
        &mut self,
        slot: usize,
        end: Option<usize>,
        key: SeqKey,
        block: CliqueBlock,
        truncated: bool,
    ) {
        if self.closed {
            return; // nothing further emits; park nothing
        }
        self.buffered_cliques += block.len();
        let parts = self.pending.entry(slot).or_default();
        if let Some(end) = end {
            parts.end = end;
        }
        parts.parts.push((key, block, truncated));
        // The caller's reporter runs inside this emission loop and may
        // panic. Catch it *here*, while the depositor still holds the
        // sequencer lock in a controlled frame: the fault is recorded, the
        // stream closes at the bytes already emitted, and the lock is
        // released healthy instead of poisoned — sibling depositors drain
        // through the closed-stream fast path.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.emit_ready())) {
            if self.fault.is_none() {
                self.fault = Some(panic_detail(payload.as_ref()));
            }
            self.closed = true;
        }
        if self.closed {
            // Drop everything still parked; later deposits are dropped on
            // arrival.
            self.pending.clear();
            self.buffered_cliques = 0;
        }
    }

    /// Emits every now-complete head slot in key order and recycles its
    /// blocks.
    fn emit_ready(&mut self) {
        while !self.closed
            && self
                .pending
                .get(&self.next)
                .is_some_and(SlotParts::is_complete)
        {
            let mut slot = self.pending.remove(&self.next).expect("checked above");
            slot.parts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (_, mut block, part_truncated) in slot.parts {
                self.buffered_cliques -= block.len();
                for clique in block.cliques() {
                    self.out.report(clique);
                }
                block.clear();
                self.spare.push(block);
                if part_truncated {
                    self.closed = true;
                    break;
                }
            }
            if self.closed {
                break;
            }
            self.next = slot.end;
        }
    }
}

/// Runs one work item into `block` and returns the part to deposit: the
/// item's cliques, and whether they are cut short. `body` runs the solver
/// into the buffer it is given. Once the budget stopped the run or a sibling
/// faulted, the item is not run and gets an empty truncated part, which
/// closes the ordered stream at or before it. A panic in `body` is recorded
/// as the fleet's fault, halts the siblings at their next branch step, and
/// is answered the same way, so no slot waits on the item forever.
fn run_part(
    mut block: CliqueBlock,
    hook: ProgressHook<'_>,
    budget: &BudgetState,
    fault: &FaultCell,
    pool: &TaskPool,
    stats: &mut EnumerationStats,
    body: impl FnOnce(&mut dyn CliqueReporter) -> EnumerationStats,
) -> (CliqueBlock, bool) {
    if fault.is_set() || budget.should_stop() {
        block.clear();
        return (block, true);
    }
    pool.interleave();
    let mut counted = CountingReporter {
        inner: &mut block,
        hook,
    };
    match catch_unwind(AssertUnwindSafe(|| body(&mut counted))) {
        Ok(s) => {
            stats.merge(&s);
            // Re-check the budget after the run, not only the item's own
            // count: a sibling can stop the session between the check above
            // and the solver's own uncharged between-rank check. A run it
            // stops before its first rank must still count as cut, or the
            // chunk loop would retry the slot and deposit a second own part
            // for it, which never completes. Marking a completed part
            // truncated is harmless — the outcome is truncated anyway.
            let truncated = s.terminated_by_budget > 0 || budget.should_stop();
            (block, truncated)
        }
        Err(payload) => {
            fault.record_payload(payload);
            budget.halt_for_fault();
            block.clear();
            (block, true)
        }
    }
}

/// Streams maximal cliques to `reporter` under a [`Budget`]: a
/// [`QuerySpec::Enumerate`] session, observed by `progress` when given.
///
/// The order is deterministic and independent of the thread count: the
/// rank-independent output first (graph-reduction cliques, then isolated
/// vertices under edge-oriented branching), then the cliques of root rank 0,
/// rank 1, … — each rank's cliques in sequential recursion order. The stream
/// stops at the budget's clique cap, step bound, deadline or cancellation,
/// and the emitted bytes are always an exact prefix of the unbudgeted stream;
/// with `max_cliques = Some(n)` the output is exactly its first `n` cliques.
/// Returns the run statistics and the [`Outcome`] (`Complete`, or
/// `Truncated` with the first bound that tripped).
///
/// # Panics
///
/// With the worker's payload when a worker or `reporter` panics; use
/// [`ExecSession::try_run`] for the typed error instead.
pub fn par_enumerate_ordered_budgeted<R: CliqueReporter + Send + ?Sized>(
    g: &Graph,
    config: &SolverConfig,
    threads: usize,
    budget: &Budget,
    progress: Option<&ProgressCounters>,
    reporter: &mut R,
) -> Result<(EnumerationStats, Outcome), ConfigError> {
    config.validate()?;
    let query = Query::new(QuerySpec::Enumerate)
        .with_config(*config)
        .with_threads(threads)
        .with_budget(budget.clone());
    let mut session = ExecSession::new(g, query).expect("configuration validated above");
    if let Some(progress) = progress {
        session = session.with_progress(progress);
    }
    let result = session.run(reporter);
    Ok((result.stats, result.outcome))
}

/// The engine's donation sink: registers every donation with the sequencer
/// (so slot completeness stays exact) before the task becomes visible in the
/// pool.
struct OrderedSink<'s, 'r, R: CliqueReporter + Send + ?Sized> {
    pool: &'s TaskPool,
    sequencer: &'s Mutex<Sequencer<'r, R>>,
    progress: ProgressHook<'s>,
}

impl<R: CliqueReporter + Send + ?Sized> DonationSink for OrderedSink<'_, '_, R> {
    fn hungry(&self) -> bool {
        self.pool.hungry()
    }

    fn step_threshold(&self) -> u32 {
        self.pool.step_threshold()
    }

    fn donate(&self, task: BranchTask) {
        self.pool.interleave();
        self.sequencer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .register_donation(task.slot);
        self.progress.split();
        self.pool.push(task);
    }
}

/// The ordered driver under a session [`BudgetState`], with explicit pool
/// tuning (tests force the backpressure, aggressive-splitting or
/// interleaving paths through it) and optional progress counters.
///
/// The driver applies the whole budget: the clique cap at the ordered output
/// point, after the sequencer, and the step, deadline and cancellation
/// bounds at every branch step.
///
/// Fault containment: panics raised by worker bodies or by the caller's
/// reporter are caught, the sibling workers halt at their next branch step
/// and drain, the stream keeps the deterministic prefix emitted before the
/// fault, and the driver returns [`EngineError::WorkerPanic`] carrying the
/// first panic's payload.
pub(crate) fn par_enumerate_ordered_driver<R: CliqueReporter + Send + ?Sized>(
    g: &Graph,
    config: &SolverConfig,
    threads: usize,
    pool_config: PoolConfig,
    progress: Option<&ProgressCounters>,
    budget: &BudgetState,
    reporter: &mut R,
) -> Result<EnumerationStats, EngineError> {
    let start = Instant::now();
    let threads = threads.max(1);
    let solver = Solver::new(g, *config).expect("configuration validated at admission");
    let (plan, mut feed) = solver.prepare();
    let total = plan.root_count();
    let hook = ProgressHook(progress);
    if let Some(p) = progress {
        p.total_roots.store(total as u64, Ordering::Relaxed);
    }
    let mut reporter = BudgetReporter::new(reporter, budget);

    // Paths that run the caller's reporter on this thread unwind no scope
    // when it panics, but they still convert the panic to the typed error
    // for a uniform contract.
    if threads == 1 {
        // Counted per clique and per chunk of roots, so progress counters
        // tick while the run progresses, even inside one giant root.
        let mut counted = CountingReporter {
            inner: &mut reporter,
            hook,
        };
        let mut stats = contain(|| {
            solver.run_sequential(
                &plan,
                &mut feed,
                &mut WorkerState::new(),
                Some(budget),
                &mut counted,
                &mut |roots| hook.roots_done(roots),
            )
        })?;
        stats.elapsed = start.elapsed();
        stats.busy_time = stats.elapsed;
        return Ok(stats);
    }

    // Rank-independent output first (deterministic given the plan).
    let mut merged = contain(|| solver.run_static(&plan, &mut reporter))?;
    hook.cliques(merged.maximal_cliques);

    // Worker 0 peels a streamed plan; a whole one is published at once.
    let mut feed = feed.streams().then_some(feed);
    let published = if feed.is_some() { 0 } else { total };
    let pool = TaskPool::new(total, published, pool_config);
    let sequencer = Mutex::new(Sequencer::new(&mut reporter));
    let fault = FaultCell::new();
    let worker_stats: Vec<EnumerationStats> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let feed = feed.take();
                let (solver, plan, pool, sequencer, fault) =
                    (&solver, &plan, &pool, &sequencer, &fault);
                scope.spawn(move || {
                    run_worker(solver, plan, feed, pool, sequencer, hook, budget, fault)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    fault.record_payload(payload);
                    EnumerationStats::default()
                })
            })
            .collect()
    });
    for stats in &worker_stats {
        merged.merge(stats);
    }
    let sequencer = sequencer.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(detail) = sequencer.fault.clone().or_else(|| fault.take()) {
        // The prefix emitted before the fault already reached the caller's
        // reporter; the error reports why the stream stopped there.
        return Err(EngineError::WorkerPanic { detail });
    }
    debug_assert!(
        sequencer.closed || sequencer.next == total,
        "every rank must have been emitted unless the stream was truncated"
    );
    debug_assert!(sequencer.closed || sequencer.pending.is_empty());
    debug_assert!(sequencer.closed || sequencer.buffered_cliques == 0);
    merged.elapsed = start.elapsed();
    Ok(merged)
}

/// The engine's one worker loop: claims donated tasks or chunks of root
/// ranks until the pool drains, runs each into a clique block with donation
/// armed, and deposits the block under its slot and key. The worker given
/// the `feed` of a streamed plan first runs its peel, publishing each chunk
/// of ranks to the pool as soon as they are final.
///
/// After a budget stop or a fault the pool still drains, so the sequencer's
/// parts-per-slot accounting stays exact: every remaining item is claimed and
/// answered with an empty truncated part, and `complete()` runs for every
/// claimed item even when its body panicked (`run_part` catches the panic) —
/// a claimed-but-never-completed item would hang every sibling's `claim()`.
/// For the same reason a peel that stops early, by the budget or by a panic,
/// closes the pool: ranks it never published are never claimed.
#[allow(clippy::too_many_arguments)]
fn run_worker<R: CliqueReporter + Send + ?Sized>(
    solver: &Solver<'_>,
    plan: &RootPlan,
    feed: Option<PlanFeed<'_>>,
    pool: &TaskPool,
    sequencer: &Mutex<Sequencer<'_, R>>,
    hook: ProgressHook<'_>,
    budget: &BudgetState,
    fault: &FaultCell,
) -> EnumerationStats {
    let start = Instant::now();
    let sink = OrderedSink {
        pool,
        sequencer,
        progress: hook,
    };
    let mut state = WorkerState::new();
    let mut stats = EnumerationStats::default();
    let mut block = CliqueBlock::default();
    // The one deposit site: parks the part, publishes the parked count to the
    // pool's claim-time backpressure, and hands back an empty block.
    let deposit = |slot: usize, end: Option<usize>, key: SeqKey, part: CliqueBlock, cut: bool| {
        pool.interleave();
        // Poison recovery: the sequencer catches reporter panics itself, but
        // a worker unwinding for any other reason while holding the lock
        // must not strand its siblings behind a poisoned mutex.
        let mut seq = sequencer.lock().unwrap_or_else(|e| e.into_inner());
        seq.deposit(slot, end, key, part, cut);
        if seq.fault.is_some() {
            // The caller's reporter panicked: nothing more can be emitted,
            // so the siblings stop at their next branch step, as after a
            // panic in a work item.
            budget.halt_for_fault();
        }
        pool.set_parked(seq.buffered_cliques);
        seq.spare_block()
    };
    if let Some(mut feed) = feed {
        while !feed.is_done() {
            // A stopped session stops the peel, and so does a panic in it,
            // which is contained like a work item's.
            let published = !budget.poll()
                && match catch_unwind(AssertUnwindSafe(|| {
                    let ranks = feed.advance(plan, None);
                    #[cfg(test)]
                    pool.peel_hooks(ranks.end, || budget.poll());
                    pool.publish(ranks.end);
                })) {
                    Ok(()) => true,
                    Err(payload) => {
                        fault.record_payload(payload);
                        budget.halt_for_fault();
                        false
                    }
                };
            if !published {
                // The stream ends where the ranks never handed out begin: an
                // empty truncated part there closes it once every chunk
                // below has been deposited.
                let cut = pool.close();
                block.clear();
                block = deposit(cut, Some(cut), SeqKey::root(), mem::take(&mut block), true);
                break;
            }
        }
        stats.ordering_time += feed.peel_time();
        stats.busy_time += feed.peel_time();
    }
    while let Some(work) = pool.claim() {
        let truncated = match work {
            // One slot per run of ranks up to and including a donating one.
            PoolWork::Chunk(mut ranks) => loop {
                let slot = ranks.start;
                let (part, truncated) = run_part(
                    mem::take(&mut block),
                    hook,
                    budget,
                    fault,
                    pool,
                    &mut stats,
                    |buffer| {
                        solver.run_on_plan(
                            plan,
                            &mut ranks,
                            &mut state,
                            Some(&sink),
                            Some(budget),
                            buffer,
                        )
                    },
                );
                hook.roots_done(ranks.start - slot);
                block = deposit(slot, Some(ranks.start), SeqKey::root(), part, truncated);
                if truncated || ranks.is_empty() {
                    break truncated;
                }
            },
            PoolWork::Task(mut task) => {
                let (slot, key) = (task.slot, mem::take(&mut task.key));
                let (part, truncated) = run_part(
                    mem::take(&mut block),
                    hook,
                    budget,
                    fault,
                    pool,
                    &mut stats,
                    |buffer| {
                        solver.run_branch_task(*task, &key, &mut state, &sink, Some(budget), buffer)
                    },
                );
                block = deposit(slot, None, key, part, truncated);
                truncated
            }
        };
        if truncated {
            // The stream closes at or before this part, so nothing a later
            // chunk produces could be emitted.
            pool.close();
        }
        pool.complete();
    }
    // `merge` summed per-item busy time but took the max of per-item wall
    // times; the worker's wall time is the whole claim loop.
    stats.elapsed = start.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use super::*;
    use crate::budget::CancelToken;
    use crate::naive::naive_maximal_cliques;
    use crate::pool::CHUNK;
    use crate::report::{CliqueLineFormat, CollectReporter, WriterReporter};
    use crate::solver::count_maximal_cliques;
    use mce_graph::Graph;

    fn test_graph() -> Graph {
        // Two overlapping communities plus sparse periphery.
        Graph::from_edges(
            12,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (6, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (9, 11),
            ],
        )
        .unwrap()
    }

    /// A sparse random graph whose root orderings yield hundreds of roots —
    /// many `CHUNK`s — so ordered runs cross chunk boundaries, and some of
    /// whose roots take several branch steps.
    fn many_roots_graph() -> Graph {
        mce_gen::erdos_renyi(240, 1_800, 11)
    }

    /// The default preset (edge roots, too small under truss order to
    /// split) and a vertex-rooted one whose roots donate under the
    /// aggressive pool.
    fn both_presets() -> [SolverConfig; 2] {
        [SolverConfig::hbbmc_pp(), SolverConfig::r_degen()]
    }

    /// A pool configuration that donates at every single branch step,
    /// maximising task fragmentation even on tiny graphs.
    fn aggressive_pool() -> PoolConfig {
        PoolConfig {
            step_threshold: 0,
            always_hungry: true,
            ..PoolConfig::default()
        }
    }

    /// The default pool and the aggressive one.
    fn both_pools() -> [(&'static str, PoolConfig); 2] {
        [
            ("default", PoolConfig::default()),
            ("aggressive", aggressive_pool()),
        ]
    }

    /// The session budget state of an unlimited run.
    fn unlimited() -> BudgetState {
        BudgetState::new(&Budget::unlimited())
    }

    /// The full ordered stream of `g` into `reporter`, through the public
    /// wrapper.
    fn ordered_into<R: CliqueReporter + Send + ?Sized>(
        g: &Graph,
        cfg: &SolverConfig,
        threads: usize,
        reporter: &mut R,
    ) -> EnumerationStats {
        par_enumerate_ordered_budgeted(g, cfg, threads, &Budget::unlimited(), None, reporter)
            .unwrap()
            .0
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let g = test_graph();
        let (seq, _) = count_maximal_cliques(&g, &SolverConfig::hbbmc_pp());
        for threads in [1, 2, 4, 7] {
            let (par, stats) = par_count_maximal_cliques(&g, &SolverConfig::hbbmc_pp(), threads);
            assert_eq!(par, seq, "threads = {threads}");
            assert_eq!(stats.maximal_cliques, seq);
        }
    }

    #[test]
    fn parallel_collect_matches_reference() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g);
        for cfg in [SolverConfig::r_degen(), SolverConfig::hbbmc_pp()] {
            let mut collector = CollectReporter::new();
            ordered_into(&g, &cfg, 3, &mut collector);
            assert_eq!(collector.into_sorted(), expected);
        }
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let g = Graph::complete(4);
        let (count, _) = par_count_maximal_cliques(&g, &SolverConfig::hbbmc_pp(), 0);
        assert_eq!(count, 1);
    }

    #[test]
    fn more_threads_than_roots_is_fine() {
        let g = Graph::complete(3); // one root survives reduction
        for threads in [2, 8, 16] {
            let (count, _) = par_count_maximal_cliques(&g, &SolverConfig::hbbmc_pp(), threads);
            assert_eq!(count, 1, "threads = {threads}");
        }
    }

    /// Renders the full ordered stream of `g` to text bytes.
    fn ordered_bytes(g: &Graph, cfg: &SolverConfig, threads: usize) -> Vec<u8> {
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        ordered_into(g, cfg, threads, &mut reporter);
        reporter.finish().unwrap()
    }

    /// [`ordered_bytes`] through the driver with the given pool, plus the
    /// run's statistics.
    fn driver_bytes(
        g: &Graph,
        cfg: &SolverConfig,
        threads: usize,
        pool: PoolConfig,
    ) -> (Vec<u8>, EnumerationStats) {
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        let stats =
            par_enumerate_ordered_driver(g, cfg, threads, pool, None, &unlimited(), &mut reporter)
                .unwrap();
        (reporter.finish().unwrap(), stats)
    }

    /// The ordered stream of `g` under `budget`, through the driver with the
    /// given pool.
    fn budgeted_bytes(
        g: &Graph,
        cfg: &SolverConfig,
        threads: usize,
        pool: PoolConfig,
        budget: &Budget,
    ) -> (Vec<u8>, Outcome) {
        let state = BudgetState::new(budget);
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        par_enumerate_ordered_driver(g, cfg, threads, pool, None, &state, &mut reporter).unwrap();
        (reporter.finish().unwrap(), state.outcome())
    }

    #[test]
    fn ordered_stream_is_byte_identical_across_threads_and_schedulers() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        assert!(!baseline.is_empty());
        for threads in [1, 2, 4, 7] {
            let bytes = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), threads);
            assert_eq!(bytes, baseline, "threads {threads}");
        }
    }

    #[test]
    fn ordered_stream_with_tiny_buffer_cap_still_matches() {
        // Forces the claim-time backpressure path: with cap 0 no new chunk
        // starts while any clique is parked out of order. The graph has many
        // chunks, so deposits cross chunk boundaries in every order.
        let g = many_roots_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        for (name, pool) in both_pools() {
            for threads in [2, 4] {
                for parked_cap in [0usize, 1, 3, 50] {
                    let pool = PoolConfig { parked_cap, ..pool };
                    let (bytes, _) = driver_bytes(&g, &SolverConfig::hbbmc_pp(), threads, pool);
                    assert_eq!(bytes, baseline, "{name} x{threads}, cap {parked_cap}");
                }
            }
        }
    }

    #[test]
    fn ordered_splitting_with_forced_fragmentation_still_matches() {
        // Donate at every branch step: the donation tree is as deep and as
        // fragmented as it can get, and the sequence keys must still
        // reassemble the sequential stream exactly. The edge-level presets
        // keep branching on later edges after a child returns, so nothing
        // beneath an edge level may be donated.
        let mut cases = vec![(test_graph(), SolverConfig::hbbmc_pp())];
        for g in [mce_gen::moon_moser(5), mce_gen::random_t_plex(30, 3, 5)] {
            for cfg in [
                SolverConfig::hbbmc_pp_depth(2),
                SolverConfig::hbbmc_pp_depth(3),
                SolverConfig::ebbmc(),
            ] {
                cases.push((g.clone(), cfg));
            }
        }
        for (g, cfg) in &cases {
            let baseline = ordered_bytes(g, cfg, 1);
            for threads in [2, 3, 4, 8] {
                let (bytes, stats) = driver_bytes(g, cfg, threads, aggressive_pool());
                let label = format!("{:?} on n = {}, threads {threads}", cfg.initial, g.n());
                assert!(bytes == baseline, "{label}: bytes differ");
                assert_eq!(stats.splits, stats.steals, "every donation is executed");
            }
        }
    }

    #[test]
    fn forced_fragmentation_actually_splits() {
        // Sanity for the test above: with aggressive settings and several
        // workers the run must produce at least one donation, otherwise the
        // fragmentation test exercises nothing. Use the bare preset — graph
        // reduction and early termination would otherwise resolve this dense
        // instance without any splittable recursion.
        let g = mce_gen::moon_moser(4);
        let mut count = CountReporter::new();
        let stats = par_enumerate_ordered_driver(
            &g,
            &SolverConfig::hbbmc_bare(),
            4,
            aggressive_pool(),
            None,
            &unlimited(),
            &mut count,
        )
        .unwrap();
        assert_eq!(count.count, 81); // 3^4
        assert!(stats.splits > 0, "aggressive pool must split: {stats:?}");
        assert_eq!(stats.splits, stats.steals);
    }

    #[test]
    fn donations_inside_a_chunk_keep_the_bytes() {
        // Every chunk runs with donation armed: a donating rank in the middle
        // of a chunk closes its slot, its donations follow it, and the rest
        // of the chunk continues as a new slot.
        let g = many_roots_graph();
        let cfg = SolverConfig::r_degen();
        let baseline = ordered_bytes(&g, &cfg, 1);
        for threads in [2, 4] {
            let (bytes, stats) = driver_bytes(&g, &cfg, threads, aggressive_pool());
            assert_eq!(bytes, baseline, "threads {threads}");
            assert!(stats.splits > 0, "threads {threads}: {stats:?}");
            assert_eq!(stats.splits, stats.steals);
        }
    }

    #[test]
    fn claim_time_backpressure_makes_the_head_root_donate() {
        // Natural-order vertex roots: the hub (rank 0) owns the whole core
        // tree, and a tail of disjoint edges puts cliques into later chunks.
        // With cap 1 the second worker's first deposit parks more than the
        // cap, so it is held back, counts as starving and receives the
        // hub's donations. The hub waits for that before it starts, so the
        // donation cannot miss it.
        let hub = mce_gen::planted_hub(29, 4);
        let n = hub.n() + 4 * CHUNK;
        let mut edges: Vec<_> = hub.edges().collect();
        edges.extend((hub.n()..n).step_by(2).map(|v| (v as u32, v as u32 + 1)));
        let g = Graph::from_edges(n, edges).unwrap();
        let cfg = SolverConfig::bk_pivot();
        let baseline = ordered_bytes(&g, &cfg, 1);
        let pool = PoolConfig {
            parked_cap: 1,
            head_waits_for_starving: true,
            ..PoolConfig::default()
        };
        let (bytes, stats) = driver_bytes(&g, &cfg, 2, pool);
        assert_eq!(bytes, baseline);
        assert!(stats.splits > 0, "{stats:?}");
        assert_eq!(stats.splits, stats.steals);
    }

    #[test]
    fn ordered_stream_reports_every_clique() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g);
        let mut collector = CollectReporter::new();
        let stats = ordered_into(&g, &SolverConfig::hbbmc_pp(), 4, &mut collector);
        assert_eq!(collector.into_sorted(), expected);
        assert_eq!(stats.maximal_cliques as usize, expected.len());
    }

    #[test]
    fn ordered_stream_matches_for_vertex_oriented_presets() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::r_degen(), 1);
        for threads in [2, 5] {
            assert_eq!(
                ordered_bytes(&g, &SolverConfig::r_degen(), threads),
                baseline
            );
        }
    }

    #[test]
    fn ordered_stream_rejects_invalid_config() {
        let g = Graph::complete(3);
        let mut cfg = SolverConfig::hbbmc_pp();
        cfg.early_termination_t = 9;
        let mut reporter = CountReporter::new();
        let run =
            par_enumerate_ordered_budgeted(&g, &cfg, 2, &Budget::unlimited(), None, &mut reporter);
        assert!(run.is_err());
    }

    #[test]
    fn progress_counters_reach_final_totals() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g).len() as u64;
        for threads in [1usize, 4] {
            let progress = ProgressCounters::new();
            let mut count = CountReporter::new();
            par_enumerate_ordered_budgeted(
                &g,
                &SolverConfig::hbbmc_pp(),
                threads,
                &Budget::unlimited(),
                Some(&progress),
                &mut count,
            )
            .unwrap();
            assert_eq!(count.count, expected, "threads {threads}");
            assert_eq!(
                progress.cliques_found.load(Ordering::Relaxed),
                expected,
                "threads {threads}"
            );
            assert_eq!(
                progress.roots_done.load(Ordering::Relaxed),
                progress.total_roots.load(Ordering::Relaxed),
            );
        }
    }

    /// Collects cliques until `remaining` hits zero, then panics on every
    /// further report — the fault-injection reporter of the containment
    /// tests.
    struct PanicAfter {
        collected: Vec<Vec<VertexId>>,
        remaining: usize,
    }

    impl PanicAfter {
        fn new(remaining: usize) -> Self {
            PanicAfter {
                collected: Vec::new(),
                remaining,
            }
        }
    }

    impl CliqueReporter for PanicAfter {
        fn report(&mut self, clique: &[VertexId]) {
            if self.remaining == 0 {
                panic!("injected reporter fault");
            }
            self.remaining -= 1;
            self.collected.push(clique.to_vec());
        }
    }

    #[test]
    fn reporter_panic_returns_typed_error_and_keeps_the_prefix() {
        let g = test_graph();
        let mut baseline = CollectReporter::new();
        ordered_into(&g, &SolverConfig::hbbmc_pp(), 1, &mut baseline);
        let full = baseline.cliques;
        assert!(full.len() > 4);
        for (name, pool) in both_pools() {
            for threads in [1usize, 2, 4] {
                for keep in [0usize, 1, 3] {
                    let mut reporter = PanicAfter::new(keep);
                    let err = par_enumerate_ordered_driver(
                        &g,
                        &SolverConfig::hbbmc_pp(),
                        threads,
                        pool,
                        None,
                        &unlimited(),
                        &mut reporter,
                    )
                    .unwrap_err();
                    let EngineError::WorkerPanic { detail } = err;
                    assert_eq!(detail, "injected reporter fault");
                    assert_eq!(
                        reporter.collected,
                        &full[..keep],
                        "{name} x{threads}, keep {keep}: the cliques emitted \
                         before the fault are the deterministic prefix"
                    );
                }
            }
        }
    }

    #[test]
    fn reporter_panic_halts_the_sibling_workers() {
        // Without a budget bound, the fault itself must stop the fleet: the
        // stream is closed, so no later chunk's work could be emitted. The
        // graph has no rank-independent output, so the first clique reaches
        // the reporter from a worker's deposit, not from the calling thread.
        let g = many_roots_graph();
        assert!(sequential_bytes(&g, &SolverConfig::hbbmc_pp(), 0..0).is_empty());
        for threads in [2usize, 4] {
            let state = unlimited();
            par_enumerate_ordered_driver(
                &g,
                &SolverConfig::hbbmc_pp(),
                threads,
                PoolConfig::default(),
                None,
                &state,
                &mut PanicAfter::new(0),
            )
            .unwrap_err();
            assert!(
                state.should_stop(),
                "x{threads}: the siblings were not halted"
            );
            assert_eq!(
                state.outcome(),
                Outcome::Complete,
                "a fault is not a budget reason"
            );
        }
    }

    #[test]
    fn splitting_worker_panic_with_forced_fragmentation_does_not_hang() {
        // The panic fires inside `Sequencer::deposit` while pool items and
        // donated tasks are in flight: every claimed item must still be
        // completed, the pool must drain, and the driver must return the
        // typed error instead of hanging `claim()` forever.
        let g = mce_gen::moon_moser(4);
        for threads in [2usize, 4] {
            let mut reporter = PanicAfter::new(5);
            let err = par_enumerate_ordered_driver(
                &g,
                &SolverConfig::hbbmc_bare(),
                threads,
                aggressive_pool(),
                None,
                &unlimited(),
                &mut reporter,
            )
            .unwrap_err();
            assert!(matches!(err, EngineError::WorkerPanic { .. }));
            assert_eq!(reporter.collected.len(), 5, "threads {threads}");
        }
    }

    #[test]
    fn ordered_worker_panic_propagates_after_a_clean_drain() {
        let g = test_graph();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut reporter = PanicAfter::new(2);
            ordered_into(&g, &SolverConfig::hbbmc_pp(), 4, &mut reporter)
        }));
        let payload = caught.expect_err("the fault must reach the caller");
        assert_eq!(
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default(),
            "injected reporter fault"
        );
    }

    #[test]
    fn deadline_truncates_to_a_byte_prefix() {
        let g = many_roots_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        for threads in [1usize, 2, 4] {
            let budget = Budget::within(std::time::Duration::ZERO);
            let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
            let (stats, outcome) = par_enumerate_ordered_budgeted(
                &g,
                &SolverConfig::hbbmc_pp(),
                threads,
                &budget,
                None,
                &mut reporter,
            )
            .unwrap();
            let bytes = reporter.finish().unwrap();
            assert_eq!(
                outcome,
                Outcome::Truncated {
                    reason: crate::TruncationReason::DeadlineExceeded
                },
                "x{threads}"
            );
            assert!(stats.terminated_by_budget >= 1);
            assert_eq!(
                &baseline[..bytes.len()],
                &bytes[..],
                "x{threads}: expired deadline still yields a byte-prefix"
            );
        }
    }

    /// Branch steps a sequential run has consumed when each root rank
    /// starts (`marks[rank]`), plus the whole run's (`marks[root_count]`).
    fn step_marks(g: &Graph, cfg: &SolverConfig) -> Vec<u64> {
        let solver = Solver::new(g, *cfg).unwrap();
        let plan = solver.whole_plan();
        let state = BudgetState::new(&Budget::unlimited());
        let mut worker = WorkerState::new();
        let mut sink = CountReporter::new();
        solver.run_static(&plan, &mut sink);
        let mut marks = vec![state.steps_taken()];
        for rank in 0..plan.root_count() {
            let budget = Some(&state);
            solver.run_on_plan(
                &plan,
                &mut (rank..rank + 1),
                &mut worker,
                None,
                budget,
                &mut sink,
            );
            marks.push(state.steps_taken());
        }
        marks
    }

    /// The sequential stream of the rank-independent output and `ranks`.
    fn sequential_bytes(g: &Graph, cfg: &SolverConfig, mut ranks: Range<usize>) -> Vec<u8> {
        let solver = Solver::new(g, *cfg).unwrap();
        let plan = solver.whole_plan();
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        solver.run_static(&plan, &mut reporter);
        let mut worker = WorkerState::new();
        solver.run_on_plan(&plan, &mut ranks, &mut worker, None, None, &mut reporter);
        reporter.finish().unwrap()
    }

    /// Step budgets that run out exactly where the fourth chunk ends, and
    /// after the first step of a multi-step rank in the middle of a chunk,
    /// each with the number of ranks a sequential run emits in full.
    fn step_cuts(marks: &[u64]) -> [(u64, usize); 2] {
        let roots = marks.len() - 1;
        assert!(roots > 8 * CHUNK, "only {roots} roots");
        let boundary = 4 * CHUNK;
        let middle = (CHUNK..roots)
            .filter(|r| (CHUNK / 4..3 * CHUNK / 4).contains(&(r % CHUNK)))
            .find(|&r| marks[r + 1] - marks[r] >= 2)
            .expect("some mid-chunk rank takes several branch steps");
        [(marks[boundary], boundary), (marks[middle] + 1, middle)]
    }

    #[test]
    fn step_budget_cut_inside_a_chunk_or_on_its_boundary_is_a_byte_prefix() {
        let g = many_roots_graph();
        for cfg in both_presets() {
            let baseline = ordered_bytes(&g, &cfg, 1);
            for (steps, whole_ranks) in step_cuts(&step_marks(&g, &cfg)) {
                // The sequential run emits every rank before the cut in full.
                let before_cut = sequential_bytes(&g, &cfg, 0..whole_ranks);
                for (name, pool) in both_pools() {
                    for threads in [1usize, 2, 4] {
                        let (bytes, outcome) =
                            budgeted_bytes(&g, &cfg, threads, pool, &Budget::steps(steps));
                        let label = format!("{name} x{threads}, {steps} steps");
                        assert!(outcome.is_truncated(), "{label}: {outcome:?}");
                        assert!(
                            baseline.starts_with(&bytes),
                            "{label}: a step-budget cut must be a byte-prefix"
                        );
                        if threads == 1 {
                            assert!(bytes.starts_with(&before_cut), "{label}");
                            assert!(bytes.len() < baseline.len(), "{label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_interleavings_keep_bytes_and_budget_prefixes() {
        // The interleaving hook yields at every claim, deposit, donation,
        // budget check and (the default preset streams its truss peel) every
        // publish of a chunk of ranks, on a schedule drawn from the seed;
        // with the aggressive pool and a tiny cap every protocol step races.
        let g = many_roots_graph();
        for cfg in both_presets() {
            let baseline = ordered_bytes(&g, &cfg, 1);
            let cuts = step_cuts(&step_marks(&g, &cfg));
            for seed in 0..64u64 {
                for threads in [2usize, 4] {
                    let pool = PoolConfig {
                        yield_seed: Some(seed),
                        parked_cap: 2,
                        ..aggressive_pool()
                    };
                    let label = format!("{:?} seed {seed} x{threads}", cfg.initial);
                    let (bytes, _) = driver_bytes(&g, &cfg, threads, pool);
                    assert!(bytes == baseline, "{label}: bytes differ");
                    for (steps, _) in cuts {
                        let (bytes, outcome) =
                            budgeted_bytes(&g, &cfg, threads, pool, &Budget::steps(steps));
                        assert!(outcome.is_truncated(), "{label}, {steps} steps");
                        assert!(
                            baseline.starts_with(&bytes),
                            "{label}, {steps} steps: not a byte-prefix"
                        );
                    }
                }
            }
        }
    }

    /// Cancels its token once it has been handed `after` cliques.
    struct CancelAfter<'a> {
        inner: &'a mut WriterReporter<Vec<u8>>,
        token: &'a CancelToken,
        after: usize,
    }

    impl CliqueReporter for CancelAfter<'_> {
        fn report(&mut self, clique: &[VertexId]) {
            self.inner.report(clique);
            self.after = self.after.saturating_sub(1);
            if self.after == 0 {
                self.token.cancel();
            }
        }
    }

    #[test]
    fn budget_cuts_while_the_peel_runs_are_byte_prefixes() {
        // The peel publishes the chunks up to the one of the first rank that
        // takes a branch step, and then holds until the session stops.
        // So a step cut at that rank, and a cancel after the first emitted
        // clique, both land while the peel still runs. The peel must stop,
        // and the stream must end at an exact prefix.
        let g = many_roots_graph();
        let cfg = SolverConfig::hbbmc_pp();
        let baseline = ordered_bytes(&g, &cfg, 1);
        let marks = step_marks(&g, &cfg);
        let first = (0..marks.len() - 1)
            .find(|&r| marks[r + 1] > marks[r])
            .expect("some rank takes a branch step");
        let hold_at = (first / CHUNK + 2) * CHUNK;
        assert!(hold_at + CHUNK < marks.len(), "the held peel would be done");
        // The budget runs out at that rank's first step.
        let steps = marks[first];
        for threads in [2usize, 4] {
            for (name, pool) in both_pools() {
                let pool = PoolConfig {
                    peel_hold_at: Some(hold_at),
                    ..pool
                };
                let label = format!("{name} x{threads}");
                let (bytes, outcome) =
                    budgeted_bytes(&g, &cfg, threads, pool, &Budget::steps(steps));
                assert_eq!(
                    outcome,
                    Outcome::Truncated {
                        reason: crate::TruncationReason::StepLimit
                    },
                    "{label}"
                );
                assert!(baseline.starts_with(&bytes), "{label}: steps");
                assert!(bytes.len() < baseline.len(), "{label}: steps");

                let token = CancelToken::new();
                let state = BudgetState::new(&Budget::unlimited().with_cancel(token.clone()));
                let mut writer = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
                let mut reporter = CancelAfter {
                    inner: &mut writer,
                    token: &token,
                    after: 1,
                };
                par_enumerate_ordered_driver(&g, &cfg, threads, pool, None, &state, &mut reporter)
                    .unwrap();
                assert_eq!(
                    state.outcome(),
                    Outcome::Truncated {
                        reason: crate::TruncationReason::Cancelled
                    },
                    "{label}"
                );
                let bytes = writer.finish().unwrap();
                assert!(!bytes.is_empty(), "{label}");
                assert!(baseline.starts_with(&bytes), "{label}: cancel");
                assert!(bytes.len() < baseline.len(), "{label}: cancel");
            }
        }
    }

    #[test]
    fn peel_panic_returns_a_typed_error_without_hanging() {
        // A panic in the peel after it published two chunks: the workers
        // waiting for the rest must not wait forever, and the stream must
        // stop at a prefix of what it would have been.
        let g = many_roots_graph();
        let cfg = SolverConfig::hbbmc_pp();
        let baseline = ordered_bytes(&g, &cfg, 1);
        for threads in [2usize, 4] {
            for (name, pool) in both_pools() {
                let pool = PoolConfig {
                    peel_panic_at: Some(3 * CHUNK),
                    ..pool
                };
                let state = unlimited();
                let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
                let err = par_enumerate_ordered_driver(
                    &g,
                    &cfg,
                    threads,
                    pool,
                    None,
                    &state,
                    &mut reporter,
                )
                .unwrap_err();
                let EngineError::WorkerPanic { detail } = err;
                assert_eq!(detail, "injected peel fault", "{name} x{threads}");
                assert!(
                    state.should_stop(),
                    "{name} x{threads}: siblings not halted"
                );
                let bytes = reporter.finish().unwrap();
                assert!(baseline.starts_with(&bytes), "{name} x{threads}");
            }
        }
    }

    #[test]
    fn generous_deadline_completes_identically() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        let budget = Budget::within(std::time::Duration::from_secs(3600));
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        let (_, outcome) = par_enumerate_ordered_budgeted(
            &g,
            &SolverConfig::hbbmc_pp(),
            4,
            &budget,
            None,
            &mut reporter,
        )
        .unwrap();
        assert_eq!(outcome, Outcome::Complete);
        assert_eq!(reporter.finish().unwrap(), baseline);
    }

    /// A block holding `cliques`, with room for 64 vertices and 8 cliques.
    fn block(cliques: &[&[VertexId]]) -> CliqueBlock {
        let mut block = CliqueBlock {
            vertices: Vec::with_capacity(64),
            ends: Vec::with_capacity(8),
        };
        for clique in cliques {
            block.report(clique);
        }
        block
    }

    #[test]
    fn sequencer_reorders_out_of_order_deposits() {
        let mut out = CollectReporter::new();
        let mut seq = Sequencer::new(&mut out);
        // Slots are rank runs keyed by their first rank; emitting one moves
        // the head past its whole run.
        seq.deposit(3, Some(5), SeqKey::root(), block(&[&[3], &[4, 5]]), false);
        seq.deposit(0, Some(1), SeqKey::root(), block(&[&[0]]), false);
        assert_eq!(seq.next, 1);
        assert_eq!(seq.buffered_cliques, 2);
        seq.deposit(1, Some(3), SeqKey::root(), block(&[&[1, 2]]), false);
        assert_eq!(seq.next, 5);
        assert!(seq.pending.is_empty());
        assert_eq!(seq.buffered_cliques, 0);
        // Every emitted block comes back empty, with its capacity intact.
        assert_eq!(seq.spare.len(), 3);
        for _ in 0..3 {
            let spare = seq.spare_block();
            assert_eq!(spare.len(), 0);
            assert!(spare.vertices.is_empty());
            assert_eq!(spare.vertices.capacity(), 64);
            assert_eq!(spare.ends.capacity(), 8);
        }
        assert_eq!(
            seq.spare_block().vertices.capacity(),
            0,
            "fresh when none left"
        );
        drop(seq);
        assert_eq!(out.cliques, vec![vec![0], vec![1, 2], vec![3], vec![4, 5]]);
    }

    #[test]
    fn sequencer_holds_ranks_until_all_parts_arrive() {
        let mut out = CollectReporter::new();
        let mut seq = Sequencer::new(&mut out);
        // The slot of ranks 0..3 donates twice; parts arrive thief-first and
        // out of key order.
        seq.register_donation(0);
        seq.register_donation(0);
        let first = SeqKey::root().child(u32::MAX);
        let second = SeqKey::root().child(u32::MAX - 1);
        seq.deposit(0, None, first, block(&[&[30]]), false);
        assert_eq!(seq.next, 0, "incomplete slot must not emit");
        seq.deposit(0, Some(3), SeqKey::root(), block(&[&[10]]), false);
        assert_eq!(seq.next, 0);
        // The last donated part must not overwrite the slot's end rank.
        seq.deposit(0, None, second, block(&[&[20]]), false);
        // Own part first, then the second (deeper) donation, then the first.
        assert_eq!(seq.next, 3);
        assert_eq!(seq.buffered_cliques, 0);
        drop(seq);
        assert_eq!(out.cliques, vec![vec![10], vec![20], vec![30]]);
    }

    #[test]
    fn stealing_ranks_cover_every_rank_exactly_once() {
        let pool = TaskPool::new(100, 100, PoolConfig::default());
        let mut seen = vec![0usize; 100];
        // Two workers claiming in turn from the same pool.
        thread::scope(|scope| {
            let claims: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ranks = Vec::new();
                        while let Some(work) = pool.claim() {
                            let PoolWork::Chunk(chunk) = work else {
                                panic!("nothing was donated")
                            };
                            ranks.extend(chunk);
                            pool.complete();
                        }
                        ranks
                    })
                })
                .collect();
            for claim in claims {
                for rank in claim.join().unwrap() {
                    seen[rank] += 1;
                }
            }
        });
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn splitting_stats_balance_on_a_skewed_graph() {
        // Natural-order vertex roots on a planted hub: the hub is rank 0 and
        // owns the whole recursion tree. With default settings the idle
        // worker starves and the hub's root donates to it; the hub waits
        // until it does before it starts.
        let g = mce_gen::planted_hub(29, 4);
        let pool = PoolConfig {
            head_waits_for_starving: true,
            ..PoolConfig::default()
        };
        let mut count = CountReporter::new();
        let cfg = SolverConfig::bk_pivot();
        let stats = par_enumerate_ordered_driver(&g, &cfg, 2, pool, None, &unlimited(), &mut count)
            .unwrap();
        assert_eq!(count.count, mce_gen::planted_hub_clique_count(29, 4));
        assert!(stats.splits > 0, "{stats:?}");
        assert_eq!(stats.splits, stats.steals);
        assert!(stats.busy_time > std::time::Duration::ZERO);
    }
}
