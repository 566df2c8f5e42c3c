//! Parallel enumeration: pulling schedulers over root branches and the
//! splitting scheduler's shared task pool with mid-branch work donation.
//!
//! The paper's algorithms are sequential, but its root branching step (Eq. 1 /
//! Eq. 2) produces a large number of independent branches, which is exactly
//! the structure that shared-memory parallel MCE implementations exploit.
//! This module wires those branches to `std::thread::scope` scoped threads:
//!
//! * The graph reduction and root ordering are computed **once** into a
//!   shared [`RootPlan`](crate::solver) — previously every worker redid the
//!   `O(δm)` preprocessing, which dominated multi-threaded runs.
//! * Under the default [`RootScheduler::Dynamic`] policy, workers *pull*
//!   chunks of root ranks from a shared atomic counter as they drain their
//!   previous chunk. [`RootScheduler::Static`] retains fixed striping for
//!   deterministic per-worker assignment: ranks `rank % threads` in the
//!   unordered drivers, whole chunks `chunk % threads` in the ordered one.
//! * Each worker owns a private scratch arena
//!   ([`EnumerationState`](crate::EnumerationState)-equivalent), so the
//!   recursion allocates nothing in steady state, and per-worker results are
//!   returned from the scoped threads' `JoinHandle`s and merged at join — no
//!   shared `Mutex` collection.
//!
//! # The task-pool protocol of [`RootScheduler::Splitting`]
//!
//! Both pulling policies are bounded below by the **largest root branch**:
//! real clique workloads are heavily skewed, so once the rank queue drains,
//! whoever holds the biggest subtree finishes alone while the other workers
//! idle. The splitting scheduler removes that bound with mid-branch work
//! donation (in the spirit of Das et al.'s dynamic sub-branch distribution
//! and Almasri et al.'s GPU worker-list donation):
//!
//! 1. **Claiming.** Root ranks are pre-grouped into per-connected-component
//!    chunks (components never share a clique, so each is an independent
//!    shard); workers claim chunks — or donated tasks, which take priority —
//!    from a shared `TaskPool` (the crate-private `pool` module) built on
//!    `Mutex` + `Condvar` only.
//! 2. **Donation.** A worker that has run at least a threshold of branch
//!    steps inside its current chunk checks a relaxed atomic: are any peers
//!    starving? If so it packages the unexplored sibling candidates of its
//!    *shallowest* splittable frame — the `R` prefix, the `(C, X)` bitsets,
//!    the remaining branch list and a snapshot of the root's local graph —
//!    into a self-contained `BranchTask` and pushes it to the pool. The
//!    donated loop stops once its in-flight child returns.
//! 3. **Stealing.** A starving worker wakes, pops the task and resumes it
//!    through the same allocation-free recursion; stolen tasks can be split
//!    again, so even a single giant root spreads over every idle worker.
//! 4. **Sequencing.** For [`par_enumerate_ordered`], every task carries a
//!    `(root_rank, SeqKey)` pair. The rank orders output coarsely; the key
//!    linearises the donation tree within a rank (the `pool` module docs
//!    derive why lexicographic key order equals the sequential emission
//!    order). The sequencer holds a rank's parts until
//!    the rank is *complete* — donations are registered with the sequencer
//!    before the task enters the pool, so "parts received = 1 + donations
//!    registered" is an exact completeness test — then emits them in key
//!    order. The output stream is therefore byte-identical to the
//!    sequential one at any thread count, under any scheduler.
//!
//! Under the pulling schedulers the sequencer's unit is a whole claimed
//! chunk: the worker runs its `CHUNK` ranks in one solver call into one flat
//! clique block and deposits it once, keyed by the chunk's first rank, and
//! emitting it moves the stream head past the whole range. The per-root cost
//! of ordering — a lock hand-off, a wake-up, a stats merge — is therefore
//! paid once per chunk. Splitting deposits stay per rank, because donation
//! keys belong to a single rank.
//!
//! Backpressure: the pulling schedulers park at most `SEQUENCER_BUFFER_CAP`
//! (2¹⁶) out-of-order cliques; a depositor whose chunk does not start at the
//! stream head waits until it does or the buffer drains, and a depositor
//! wakes waiters only when one is counted. Splitting deposits never wait — a
//! blocked depositor could be the only worker able to execute the stream
//! head's stolen tasks — so ordered splitting runs trade the hard buffer
//! bound for progress (donated work is claimed FIFO, which keeps buffering
//! close to the head).

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Instant;

use mce_graph::{GraphTopology, VertexId};

use crate::budget::{Budget, BudgetReporter, BudgetState, Outcome};
use crate::config::{ConfigError, RootScheduler, SolverConfig};
use crate::pool::{BranchTask, DonationSink, PoolConfig, PoolWork, SeqKey, TaskPool};
use crate::report::{CliqueReporter, CollectReporter, CountReporter};
use crate::scratch::WorkerState;
use crate::solver::{RootPlan, Solver};
use crate::stats::EnumerationStats;

/// Ranks per claim of the pulling schedulers, and per sequencer deposit of
/// their ordered driver. Small enough to balance skewed roots, large enough
/// to keep counter contention and per-deposit costs negligible.
const CHUNK: usize = 16;

// ----------------------------------------------------------------------
// Fault containment
// ----------------------------------------------------------------------

/// A typed failure of a parallel enumeration run.
///
/// The ordered drivers catch panics raised inside worker bodies (including
/// panics thrown by the caller's [`CliqueReporter`]): the first fault is
/// recorded, the sibling workers drain their remaining work without
/// executing it, the ordered stream stops at the deterministic prefix
/// emitted before the fault, and the run returns
/// [`EngineError::WorkerPanic`] instead of hanging the scope or poisoning
/// its locks.
#[derive(Debug)]
pub enum EngineError {
    /// The solver configuration was rejected at validation.
    Config(ConfigError),
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
            EngineError::Config(e) => e.fmt(f),
            EngineError::WorkerPanic { detail } => {
                write!(f, "enumeration worker panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            EngineError::WorkerPanic { .. } => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
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

    fn record(&self, detail: String) {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(detail);
        }
    }

    fn record_payload(&self, payload: Box<dyn Any + Send>) {
        self.record(panic_detail(payload.as_ref()));
    }

    fn is_set(&self) -> bool {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    fn take(&self) -> Option<String> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// An iterator handing out chunks of `CHUNK` consecutive root ranks from a
/// shared atomic counter.
struct StealingChunks<'a> {
    next_rank: &'a AtomicUsize,
    total: usize,
}

impl<'a> StealingChunks<'a> {
    fn new(next_rank: &'a AtomicUsize, total: usize) -> Self {
        StealingChunks { next_rank, total }
    }
}

impl Iterator for StealingChunks<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let start = self.next_rank.fetch_add(CHUNK, Ordering::Relaxed);
        (start < self.total).then(|| start..(start + CHUNK).min(self.total))
    }
}

/// The chunks of `CHUNK` consecutive root ranks that static striping assigns
/// to `worker_id`: chunk `c` belongs to worker `c % threads`.
fn static_chunks(
    worker_id: usize,
    threads: usize,
    total: usize,
) -> impl Iterator<Item = Range<usize>> {
    (worker_id..total.div_ceil(CHUNK))
        .step_by(threads)
        .map(move |chunk| chunk * CHUNK..((chunk + 1) * CHUNK).min(total))
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
    /// Sub-branch tasks donated by the splitting scheduler so far.
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
/// root branch is still in flight).
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

// ----------------------------------------------------------------------
// Unordered drivers
// ----------------------------------------------------------------------

/// Runs `threads` workers over the shared plan, streaming cliques to the
/// per-worker reporters produced by `make_reporter`, and returns the
/// `(reporter, stats)` pairs collected from the join handles.
fn run_workers<G, R, F>(
    solver: &Solver<'_, G>,
    plan: &RootPlan,
    threads: usize,
    make_reporter: F,
) -> Vec<(R, EnumerationStats)>
where
    G: GraphTopology + Sync,
    R: CliqueReporter + Send,
    F: Fn() -> R + Sync,
{
    match solver.config().scheduler {
        RootScheduler::Splitting => {
            run_workers_splitting(solver, plan, threads, PoolConfig::default(), make_reporter)
        }
        RootScheduler::Dynamic | RootScheduler::Static => {
            run_workers_pulling(solver, plan, threads, make_reporter)
        }
    }
}

/// The pulling-scheduler worker fleet (dynamic atomic-counter chunks or
/// static striping).
///
/// Panic containment: a panicking worker records the first fault and exits;
/// its siblings finish their own ranks and the fleet re-raises the fault
/// *after* every thread has joined, so the scope never deadlocks and no lock
/// is poisoned. (The ordered drivers go further and return a typed
/// [`EngineError`]; the unordered fleets have no partial result worth
/// salvaging.)
fn run_workers_pulling<G, R, F>(
    solver: &Solver<'_, G>,
    plan: &RootPlan,
    threads: usize,
    make_reporter: F,
) -> Vec<(R, EnumerationStats)>
where
    G: GraphTopology + Sync,
    R: CliqueReporter + Send,
    F: Fn() -> R + Sync,
{
    let scheduler = solver.config().scheduler;
    let total = plan.root_count();
    let next_rank = AtomicUsize::new(0);
    let fault = FaultCell::new();

    let results: Vec<Option<(R, EnumerationStats)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker_id| {
                let next_rank = &next_rank;
                let make_reporter = &make_reporter;
                let fault = &fault;
                scope.spawn(move || {
                    let mut reporter = make_reporter();
                    let mut state = WorkerState::new();
                    let run = catch_unwind(AssertUnwindSafe(|| match scheduler {
                        RootScheduler::Static => solver.run_on_plan(
                            plan,
                            (worker_id..total).step_by(threads),
                            worker_id == 0,
                            &mut state,
                            None,
                            &mut reporter,
                        ),
                        _ => solver.run_on_plan(
                            plan,
                            StealingChunks::new(next_rank, total).flatten(),
                            worker_id == 0,
                            &mut state,
                            None,
                            &mut reporter,
                        ),
                    }));
                    match run {
                        Ok(stats) => Some((reporter, stats)),
                        Err(payload) => {
                            fault.record_payload(payload);
                            None
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    fault.record_payload(payload);
                    None
                })
            })
            .collect()
    });
    if let Some(detail) = fault.take() {
        resume_unwind(Box::new(detail));
    }
    results.into_iter().flatten().collect()
}

/// The splitting-scheduler worker fleet: claim component chunks or donated
/// tasks from the shared pool until it drains.
fn run_workers_splitting<G, R, F>(
    solver: &Solver<'_, G>,
    plan: &RootPlan,
    threads: usize,
    pool_config: PoolConfig,
    make_reporter: F,
) -> Vec<(R, EnumerationStats)>
where
    G: GraphTopology + Sync,
    R: CliqueReporter + Send,
    F: Fn() -> R + Sync,
{
    let shards = plan
        .shards
        .as_ref()
        .expect("splitting plan carries component shards");
    let pool = TaskPool::new(shards.chunk_count(), pool_config);
    let fault = FaultCell::new();

    let results: Vec<Option<(R, EnumerationStats)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker_id| {
                let pool = &pool;
                let make_reporter = &make_reporter;
                let fault = &fault;
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut reporter = make_reporter();
                    let mut state = WorkerState::new();
                    let mut stats = EnumerationStats::default();
                    if worker_id == 0 {
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            solver.run_on_plan(
                                plan,
                                std::iter::empty(),
                                true,
                                &mut state,
                                None,
                                &mut reporter,
                            )
                        }));
                        match run {
                            Ok(s) => stats.merge(&s),
                            Err(payload) => fault.record_payload(payload),
                        }
                    }
                    // Every claimed item is completed even when its body
                    // panics — a claimed-but-never-completed item would keep
                    // the pool "active" forever and hang every sibling's
                    // `claim()`. After a fault the pool still drains (items
                    // are claimed and dropped unexecuted) so termination
                    // detection stays exact.
                    while let Some(work) = pool.claim() {
                        if fault.is_set() {
                            pool.complete();
                            continue;
                        }
                        let run = catch_unwind(AssertUnwindSafe(|| match work {
                            PoolWork::Chunk(chunk) => solver.run_ranks_donating(
                                plan,
                                shards.chunk(chunk),
                                &mut state,
                                pool,
                                None,
                                &mut reporter,
                            ),
                            PoolWork::Task(task) => {
                                solver.run_branch_task(*task, &mut state, pool, None, &mut reporter)
                            }
                        }));
                        pool.complete();
                        match run {
                            Ok(s) => stats.merge(&s),
                            Err(payload) => {
                                fault.record_payload(payload);
                                break;
                            }
                        }
                    }
                    // `merge` summed per-item busy time but took the max of
                    // per-item wall times; the worker's wall time is the
                    // whole claim loop.
                    stats.elapsed = start.elapsed();
                    Some((reporter, stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    fault.record_payload(payload);
                    None
                })
            })
            .collect()
    });
    if let Some(detail) = fault.take() {
        resume_unwind(Box::new(detail));
    }
    results.into_iter().flatten().collect()
}

/// Counts maximal cliques using `threads` workers. Returns the total count and
/// the merged statistics (wall time is the maximum over workers).
pub fn par_count_maximal_cliques<G: GraphTopology + Sync>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
) -> (u64, EnumerationStats) {
    let (total, merged, _) = par_count_with_worker_stats(g, config, threads);
    (total, merged)
}

/// [`par_count_maximal_cliques`] that additionally returns each worker's own
/// statistics, making the load balance of a run observable: comparing the
/// per-worker `recursive_calls` (or `busy_time`) shares shows how evenly the
/// scheduler spread the recursion tree — under a pulling scheduler one
/// worker owns a skewed graph's giant root, under the splitting scheduler
/// the shares approach `1 / threads`.
pub fn par_count_with_worker_stats<G: GraphTopology + Sync>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
) -> (u64, EnumerationStats, Vec<EnumerationStats>) {
    let threads = threads.max(1);
    let solver = Solver::new(g, *config).expect("invalid solver configuration");
    let plan = solver.prepare();
    let results = run_workers(&solver, &plan, threads, CountReporter::new);

    let mut total = 0u64;
    let mut merged = EnumerationStats::default();
    let mut per_worker = Vec::with_capacity(results.len());
    for (reporter, stats) in results {
        total += reporter.count;
        merged.merge(&stats);
        per_worker.push(stats);
    }
    (total, merged, per_worker)
}

/// Collects all maximal cliques using `threads` workers, in canonical order.
pub fn par_enumerate_collect<G: GraphTopology + Sync>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
) -> (Vec<Vec<VertexId>>, EnumerationStats) {
    let threads = threads.max(1);
    let solver = Solver::new(g, *config).expect("invalid solver configuration");
    let plan = solver.prepare();
    let results = run_workers(&solver, &plan, threads, CollectReporter::new);

    let mut cliques = Vec::new();
    let mut merged = EnumerationStats::default();
    for (reporter, stats) in results {
        // CollectReporter already sorts each clique's members on report.
        cliques.extend(reporter.cliques);
        merged.merge(&stats);
    }
    cliques.sort();
    (cliques, merged)
}

/// Streams maximal cliques to a shared reporter from `threads` workers. The
/// reporter is locked per clique, so use this with cheap reporters (counters,
/// writers) rather than heavy computations.
pub fn par_enumerate_streaming<G: GraphTopology + Sync, R: CliqueReporter + Send>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    reporter: &mut R,
) -> EnumerationStats {
    struct SharedReporter<'a, R: CliqueReporter> {
        inner: &'a Mutex<&'a mut R>,
    }
    impl<R: CliqueReporter> CliqueReporter for SharedReporter<'_, R> {
        fn report(&mut self, clique: &[VertexId]) {
            // Poison recovery: a panicking reporter is contained by the
            // worker fleet, and the surviving workers must still be able to
            // take this lock while they drain.
            self.inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .report(clique);
        }
    }

    let threads = threads.max(1);
    let solver = Solver::new(g, *config).expect("invalid solver configuration");
    let plan = solver.prepare();
    let shared = Mutex::new(reporter);
    let results = run_workers(&solver, &plan, threads, || SharedReporter {
        inner: &shared,
    });

    let mut merged = EnumerationStats::default();
    for (_, stats) in results {
        merged.merge(&stats);
    }
    merged
}

// ----------------------------------------------------------------------
// Deterministic ordered streaming
// ----------------------------------------------------------------------

/// The cliques of one work item — a chunk of root ranks, one root rank or a
/// stolen sub-branch — in sequential recursion order, stored flat: every
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

    fn push(&mut self, clique: &[VertexId]) {
        self.vertices.extend_from_slice(clique);
        self.ends.push(self.vertices.len());
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

/// Fills a [`CliqueBlock`] without sorting anything, ticking the progress
/// counters at discovery time.
struct BlockBuffer<'a> {
    block: CliqueBlock,
    hook: ProgressHook<'a>,
}

impl CliqueReporter for BlockBuffer<'_> {
    fn report(&mut self, clique: &[VertexId]) {
        self.hook.cliques(1);
        self.block.push(clique);
    }
}

/// The parts of one sequencer slot collected so far. A slot is a range of
/// root ranks keyed by its first rank: a whole claimed chunk under the
/// pulling schedulers, a single rank (plus its donations) under splitting.
#[derive(Default)]
struct RankParts {
    /// `(key, block, truncated)` deposits, unsorted until the slot
    /// completes. `truncated` marks a part whose work item was cut short by
    /// the session budget — its cliques are a prefix of that item's
    /// sequential contribution.
    parts: Vec<(SeqKey, CliqueBlock, bool)>,
    /// One past the slot's last rank: where the stream head moves once the
    /// slot is emitted.
    end: usize,
    /// Donations registered for this rank. A slot is complete when
    /// `parts.len() == donations + 1` (the `+ 1` is the root's own task);
    /// donations are registered *before* their task enters the pool, so the
    /// test is exact.
    donations: usize,
}

impl RankParts {
    fn is_complete(&self) -> bool {
        self.parts.len() == self.donations + 1
    }
}

/// Reorders clique blocks arriving from any worker in any order into the
/// sequential stream: strict root-rank order, and within one rank the
/// donation-tree order encoded by [`SeqKey`].
struct Sequencer<'a, R: CliqueReporter + ?Sized> {
    /// First rank not yet emitted — always the first rank of a slot.
    next: usize,
    pending: BTreeMap<usize, RankParts>,
    /// Total cliques currently parked in `pending` (the backpressure gauge).
    buffered_cliques: usize,
    /// Depositors waiting for backpressure to ease, counted under the lock
    /// so that a deposit wakes the condvar only when someone waits.
    waiters: usize,
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
            waiters: 0,
            spare: Vec::new(),
            closed: false,
            fault: None,
            out,
        }
    }

    /// Records that `rank` will receive one more part than previously known.
    fn register_donation(&mut self, rank: usize) {
        self.pending.entry(rank).or_default().donations += 1;
    }

    /// An empty block to fill with the next work item: an emitted one when
    /// available, so steady-state runs stop allocating blocks.
    fn spare_block(&mut self) -> CliqueBlock {
        self.spare.pop().unwrap_or_default()
    }

    /// Adds one work item's cliques for the slot covering `ranks` and emits
    /// every now-complete head slot. A part marked `truncated` was cut short
    /// by the session budget: once it reaches the stream head its (prefix)
    /// cliques are emitted and the stream closes — everything later is
    /// discarded, keeping the output an exact byte-prefix of the full
    /// deterministic stream. Returns whether the head advanced or the stream
    /// closed (both free waiting depositors).
    fn deposit(
        &mut self,
        ranks: Range<usize>,
        key: SeqKey,
        block: CliqueBlock,
        truncated: bool,
    ) -> bool {
        if self.closed {
            return true; // nothing further emits; park nothing
        }
        self.buffered_cliques += block.len();
        let slot = self.pending.entry(ranks.start).or_default();
        slot.end = ranks.end;
        slot.parts.push((key, block, truncated));
        let before = self.next;
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
        self.next != before || self.closed
    }

    /// Emits every now-complete head slot in key order and recycles its
    /// blocks.
    fn emit_ready(&mut self) {
        while !self.closed
            && self
                .pending
                .get(&self.next)
                .is_some_and(RankParts::is_complete)
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

/// Out-of-order cliques the sequencer may park before depositors must wait
/// for the stream head to catch up (pulling schedulers only — see the module
/// docs for why splitting deposits never wait). Bounds the ordered driver's
/// memory at roughly this many cliques (plus one in-flight chunk per worker)
/// instead of the full result set when one early root branch is much slower
/// than the rest.
const SEQUENCER_BUFFER_CAP: usize = 1 << 16;

/// Deposits the block of the chunk covering `ranks`, waiting while the
/// out-of-order buffer is over `cap`, and returns an empty block for the
/// worker's next chunk. Deadlock-free: the chunk starting at the stream head
/// never waits (its deposit is what drains the buffer and advances `next`,
/// which eventually makes every waiting depositor the head of the stream).
fn bounded_deposit<R: CliqueReporter + ?Sized>(
    sequencer: &Mutex<Sequencer<'_, R>>,
    drained: &Condvar,
    cap: usize,
    ranks: Range<usize>,
    block: CliqueBlock,
    truncated: bool,
) -> CliqueBlock {
    // Poison recovery: the sequencer catches reporter panics itself, but a
    // worker unwinding for any other reason while holding the lock must not
    // strand its siblings behind a poisoned mutex.
    let mut seq = sequencer.lock().unwrap_or_else(|e| e.into_inner());
    while !seq.closed && ranks.start != seq.next && seq.buffered_cliques + block.len() > cap {
        seq.waiters += 1;
        seq = drained.wait(seq).unwrap_or_else(|e| e.into_inner());
        seq.waiters -= 1;
    }
    // `next` moved (possibly past several parked chunks) or the stream
    // closed: capacity was freed and a waiter may now be the stream head
    // (or free to drop its deposit). A waiter counted here is already
    // parked on the condvar, so notifying after the unlock loses no wake-up.
    let wake = seq.deposit(ranks, SeqKey::root(), block, truncated) && seq.waiters > 0;
    let spare = seq.spare_block();
    drop(seq);
    if wake {
        drained.notify_all();
    }
    spare
}

/// Runs one work item of an ordered worker into `block` and returns the part
/// to deposit: the item's cliques, and whether they are cut short. `body`
/// runs the solver into the buffer it is given; `roots` is the number of
/// root ranks the item completes. Once the budget stopped the run or a
/// sibling faulted, the item is not run and gets an empty truncated part,
/// which closes the ordered stream at or before it. A panic in `body` is
/// recorded as the fleet's fault (halting the siblings on the budget cadence
/// when a budget exists) and answered the same way, so no depositor waits on
/// the item forever.
fn run_part(
    mut block: CliqueBlock,
    roots: usize,
    hook: ProgressHook<'_>,
    budget: Option<&BudgetState>,
    fault: &FaultCell,
    stats: &mut EnumerationStats,
    body: impl FnOnce(&mut BlockBuffer<'_>) -> EnumerationStats,
) -> (CliqueBlock, bool) {
    if fault.is_set() || budget.is_some_and(BudgetState::should_stop) {
        block.clear();
        return (block, true);
    }
    let mut buffer = BlockBuffer { block, hook };
    match catch_unwind(AssertUnwindSafe(|| body(&mut buffer))) {
        Ok(s) => {
            stats.merge(&s);
            hook.roots_done(roots);
            // Re-check the budget after the run, not only the item's own
            // count: a sibling can exhaust the shared budget between the
            // check above and the solver's own uncharged between-rank check,
            // and then ranks return empty stats with `terminated_by_budget
            // == 0` although they never ran. Marking a completed part
            // truncated is harmless — the outcome is truncated anyway and
            // the closed stream stays a prefix.
            let truncated =
                s.terminated_by_budget > 0 || budget.is_some_and(BudgetState::should_stop);
            (buffer.block, truncated)
        }
        Err(payload) => {
            fault.record_payload(payload);
            if let Some(b) = budget {
                b.halt_for_fault();
            }
            buffer.block.clear();
            (buffer.block, true)
        }
    }
}

/// Streams maximal cliques to `reporter` in a deterministic order that is
/// independent of the thread count and of the [`RootScheduler`] variant: the
/// rank-independent output first (graph-reduction cliques, then isolated
/// vertices under edge-oriented branching), then the cliques of root rank 0,
/// rank 1, … — each rank's cliques in sequential recursion order. The stream
/// is byte-for-byte reproducible for any formatting reporter layered on top,
/// which is what the CLI's golden-output determinism gate enforces.
///
/// Workers still *claim* work according to `config.scheduler` — including
/// stealing donated sub-branches under [`RootScheduler::Splitting`] — and a
/// rank-plus-key sequencer reorders their buffered output before it reaches
/// `reporter`. Under the pulling schedulers memory is bounded: at most a
/// fixed cap (currently 2¹⁶) of out-of-order cliques are parked, with later
/// depositors waiting instead of accumulating the full result set.
pub fn par_enumerate_ordered<G: GraphTopology + Sync, R: CliqueReporter + Send + ?Sized>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    reporter: &mut R,
) -> Result<EnumerationStats, ConfigError> {
    repanic_worker_faults(par_enumerate_ordered_driver(
        g,
        config,
        threads,
        SEQUENCER_BUFFER_CAP,
        PoolConfig::default(),
        None,
        None,
        reporter,
    ))
}

/// Maps a driver result back to the legacy `ConfigError` signature:
/// configuration errors pass through, worker panics — already drained
/// cleanly by the driver — are re-raised on the caller's thread.
fn repanic_worker_faults(
    result: Result<EnumerationStats, EngineError>,
) -> Result<EnumerationStats, ConfigError> {
    match result {
        Ok(stats) => Ok(stats),
        Err(EngineError::Config(e)) => Err(e),
        Err(EngineError::WorkerPanic { detail }) => resume_unwind(Box::new(detail)),
    }
}

/// [`par_enumerate_ordered`] with live progress counters: `progress` is
/// updated as roots complete, cliques are discovered and sub-branches are
/// donated, so a monitoring thread can report enumeration rates without
/// touching the output stream.
pub fn par_enumerate_ordered_observed<
    G: GraphTopology + Sync,
    R: CliqueReporter + Send + ?Sized,
>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    reporter: &mut R,
    progress: &ProgressCounters,
) -> Result<EnumerationStats, ConfigError> {
    repanic_worker_faults(par_enumerate_ordered_driver(
        g,
        config,
        threads,
        SEQUENCER_BUFFER_CAP,
        PoolConfig::default(),
        Some(progress),
        None,
        reporter,
    ))
}

/// [`par_enumerate_ordered`] under a [`Budget`]: the stream stops at the
/// budget's clique cap, step bound or cancellation, and the emitted bytes are
/// always an exact prefix of the unbudgeted deterministic stream — at any
/// thread count, under any [`RootScheduler`]. With `max_cliques = Some(n)`
/// the output is exactly the first `n` cliques of that stream.
///
/// Workers observe the budget between branch steps, so cancellation latency
/// is bounded by one branch step plus the cost of unwinding. `progress`
/// optionally attaches live [`ProgressCounters`]. Returns the run statistics
/// and the [`Outcome`] (`Complete`, or `Truncated` with the first bound that
/// tripped).
pub fn par_enumerate_ordered_budgeted<
    G: GraphTopology + Sync,
    R: CliqueReporter + Send + ?Sized,
>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    budget: &Budget,
    progress: Option<&ProgressCounters>,
    reporter: &mut R,
) -> Result<(EnumerationStats, Outcome), ConfigError> {
    let state = BudgetState::new(budget);
    let mut stats = repanic_worker_faults(par_enumerate_ordered_with_state(
        g, config, threads, &state, progress, reporter,
    ))?;
    let outcome = state.outcome();
    if outcome.is_truncated() && stats.terminated_by_budget == 0 {
        // The budget tripped between branching frames (between root ranks, or
        // at the output gate after the last frame finished): charge the run
        // itself so truncated outcomes always report >= 1 abandoned unit.
        stats.terminated_by_budget = 1;
    }
    Ok((stats, outcome))
}

/// [`par_enumerate_ordered_budgeted`] over an existing session
/// [`BudgetState`] (the query layer owns the state so its cancel token can be
/// handed out before the run starts). Applies the clique-cap gate here —
/// after the deterministic sequencer — so callers pass their raw reporter.
pub(crate) fn par_enumerate_ordered_with_state<G, R>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    state: &BudgetState,
    progress: Option<&ProgressCounters>,
    reporter: &mut R,
) -> Result<EnumerationStats, EngineError>
where
    G: GraphTopology + Sync,
    R: CliqueReporter + Send + ?Sized,
{
    let mut gated = BudgetReporter::new(reporter, state);
    par_enumerate_ordered_driver(
        g,
        config,
        threads,
        SEQUENCER_BUFFER_CAP,
        PoolConfig::default(),
        progress,
        Some(state),
        &mut gated,
    )
}

/// The donation sink of ordered splitting runs: registers every donation
/// with the sequencer (so rank completeness stays exact) before the task
/// becomes visible in the pool.
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
        self.sequencer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .register_donation(task.rank);
        self.progress.split();
        self.pool.push(task);
    }
}

/// The full ordered driver (internal): explicit buffer cap, pool tuning and
/// optional progress counters, exposed for tests that force the backpressure
/// or aggressive-splitting paths.
///
/// Fault containment: panics raised by worker bodies or by the caller's
/// reporter are caught, the surviving workers drain, the stream keeps the
/// deterministic prefix emitted before the fault, and the driver returns
/// [`EngineError::WorkerPanic`] carrying the first panic's payload.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_enumerate_ordered_driver<G, R>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    cap: usize,
    pool_config: PoolConfig,
    progress: Option<&ProgressCounters>,
    budget: Option<&BudgetState>,
    mut reporter: &mut R,
) -> Result<EnumerationStats, EngineError>
where
    G: GraphTopology + Sync,
    R: CliqueReporter + Send + ?Sized,
{
    let start = Instant::now();
    let threads = threads.max(1);
    let solver = Solver::new(g, *config)?;
    let plan = solver.prepare();
    let total = plan.root_count();
    let hook = ProgressHook(progress);
    if let Some(p) = progress {
        p.total_roots.store(total as u64, Ordering::Relaxed);
    }

    // Rank-independent output first (deterministic given the plan).
    // `&mut reporter` re-borrows through the blanket `&mut R: CliqueReporter`
    // impl so unsized `R` still coerces to `&mut dyn CliqueReporter`. This
    // and the single-threaded paths below run the caller's reporter on this
    // thread, so a panic here unwinds no scope — but it is still converted
    // to the typed error for a uniform contract.
    let mut merged = {
        let mut warm = WorkerState::new();
        catch_unwind(AssertUnwindSafe(|| {
            solver.run_on_plan(
                &plan,
                std::iter::empty(),
                true,
                &mut warm,
                budget,
                &mut reporter,
            )
        }))
        .map_err(|payload| EngineError::WorkerPanic {
            detail: panic_detail(payload.as_ref()),
        })?
    };
    hook.cliques(merged.maximal_cliques);

    if threads == 1 {
        let mut state = WorkerState::new();
        let run = catch_unwind(AssertUnwindSafe(|| {
            if progress.is_some() {
                // Counted per clique (and per chunk of roots) so the counters
                // tick while the run progresses, even inside one giant root.
                let mut counted = CountingReporter {
                    inner: &mut *reporter,
                    hook,
                };
                let mut rank = 0usize;
                while rank < total {
                    let end = (rank + CHUNK).min(total);
                    let stats = solver.run_on_plan(
                        &plan,
                        rank..end,
                        false,
                        &mut state,
                        budget,
                        &mut counted,
                    );
                    if let Some(p) = progress {
                        p.roots_done
                            .fetch_add((end - rank) as u64, Ordering::Relaxed);
                    }
                    merged.merge(&stats);
                    rank = end;
                }
            } else {
                let stats =
                    solver.run_on_plan(&plan, 0..total, false, &mut state, budget, &mut reporter);
                merged.merge(&stats);
            }
        }));
        if let Err(payload) = run {
            return Err(EngineError::WorkerPanic {
                detail: panic_detail(payload.as_ref()),
            });
        }
        merged.elapsed = start.elapsed();
        merged.busy_time = merged.elapsed;
        return Ok(merged);
    }

    let scheduler = solver.config().scheduler;
    let sequencer = Mutex::new(Sequencer::new(reporter));
    let drained = Condvar::new();
    let fault = FaultCell::new();

    let worker_stats: Vec<EnumerationStats> = match scheduler {
        RootScheduler::Splitting => ordered_splitting_workers(
            &solver,
            &plan,
            threads,
            pool_config,
            hook,
            budget,
            &sequencer,
            &fault,
        ),
        RootScheduler::Dynamic | RootScheduler::Static => ordered_pulling_workers(
            &solver, &plan, threads, cap, scheduler, hook, budget, &sequencer, &drained, &fault,
        ),
    };
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

/// Ordered workers under the pulling schedulers: each claimed chunk of
/// `CHUNK` root ranks — pulled from the shared counter, or striped by worker
/// id under [`RootScheduler::Static`] — runs as one solver call into one
/// flat clique block and is deposited once, keyed by its first rank, under
/// the sequencer buffer cap.
#[allow(clippy::too_many_arguments)]
fn ordered_pulling_workers<G: GraphTopology + Sync, R: CliqueReporter + Send + ?Sized>(
    solver: &Solver<'_, G>,
    plan: &RootPlan,
    threads: usize,
    cap: usize,
    scheduler: RootScheduler,
    hook: ProgressHook<'_>,
    budget: Option<&BudgetState>,
    sequencer: &Mutex<Sequencer<'_, R>>,
    drained: &Condvar,
    fault: &FaultCell,
) -> Vec<EnumerationStats> {
    let total = plan.root_count();
    let next_rank = AtomicUsize::new(0);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker_id| {
                let next_rank = &next_rank;
                scope.spawn(move || {
                    let mut state = WorkerState::new();
                    let mut stats = EnumerationStats::default();
                    let mut block = CliqueBlock::default();
                    let chunks: Box<dyn Iterator<Item = Range<usize>>> = match scheduler {
                        RootScheduler::Static => Box::new(static_chunks(worker_id, threads, total)),
                        _ => Box::new(StealingChunks::new(next_rank, total)),
                    };
                    for ranks in chunks {
                        let (part, truncated) = run_part(
                            mem::take(&mut block),
                            ranks.len(),
                            hook,
                            budget,
                            fault,
                            &mut stats,
                            |buffer| {
                                solver.run_on_plan(
                                    plan,
                                    ranks.clone(),
                                    false,
                                    &mut state,
                                    budget,
                                    buffer,
                                )
                            },
                        );
                        block = bounded_deposit(sequencer, drained, cap, ranks, part, truncated);
                        // The stream closes at or before a truncated part, so
                        // nothing this worker could run later would be emitted.
                        if truncated {
                            break;
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("enumeration worker panicked"))
            .collect()
    })
}

/// Ordered workers under the splitting scheduler: claim component chunks or
/// donated tasks, deposit each root rank's block under `(rank, root key)`
/// and each task's block under its `(rank, key)`.
#[allow(clippy::too_many_arguments)]
fn ordered_splitting_workers<G: GraphTopology + Sync, R: CliqueReporter + Send + ?Sized>(
    solver: &Solver<'_, G>,
    plan: &RootPlan,
    threads: usize,
    pool_config: PoolConfig,
    hook: ProgressHook<'_>,
    budget: Option<&BudgetState>,
    sequencer: &Mutex<Sequencer<'_, R>>,
    fault: &FaultCell,
) -> Vec<EnumerationStats> {
    let shards = plan
        .shards
        .as_ref()
        .expect("splitting plan carries component shards");
    let pool = TaskPool::new(shards.chunk_count(), pool_config);
    // Deposits one part and hands back an empty block for the next one.
    let deposit = |rank: usize, key: SeqKey, block: CliqueBlock, truncated: bool| {
        let mut seq = sequencer.lock().unwrap_or_else(|e| e.into_inner());
        seq.deposit(rank..rank + 1, key, block, truncated);
        seq.spare_block()
    };

    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = &pool;
                let deposit = &deposit;
                scope.spawn(move || {
                    let start = Instant::now();
                    let sink = OrderedSink {
                        pool,
                        sequencer,
                        progress: hook,
                    };
                    let mut state = WorkerState::new();
                    let mut stats = EnumerationStats::default();
                    let mut block = CliqueBlock::default();
                    // After a budget stop or a fault, the pool must still
                    // drain so the sequencer's parts-per-rank accounting
                    // stays exact: every remaining work item is claimed and
                    // immediately answered with an empty truncated part, and
                    // `complete()` runs for every claimed item even when its
                    // body panicked (a claimed-but-never-completed item
                    // would hang every sibling's `claim()`).
                    while let Some(work) = pool.claim() {
                        match work {
                            PoolWork::Chunk(chunk) => {
                                for rank in shards.chunk(chunk) {
                                    let (part, truncated) = run_part(
                                        mem::take(&mut block),
                                        1,
                                        hook,
                                        budget,
                                        fault,
                                        &mut stats,
                                        |buffer| {
                                            solver.run_ranks_donating(
                                                plan,
                                                std::iter::once(rank),
                                                &mut state,
                                                &sink,
                                                budget,
                                                buffer,
                                            )
                                        },
                                    );
                                    block = deposit(rank, SeqKey::root(), part, truncated);
                                }
                            }
                            PoolWork::Task(task) => {
                                let (rank, key) = (task.rank, task.key.clone());
                                let (part, truncated) = run_part(
                                    mem::take(&mut block),
                                    0,
                                    hook,
                                    budget,
                                    fault,
                                    &mut stats,
                                    |buffer| {
                                        solver.run_branch_task(
                                            *task, &mut state, &sink, budget, buffer,
                                        )
                                    },
                                );
                                block = deposit(rank, key, part, truncated);
                            }
                        }
                        pool.complete();
                    }
                    stats.elapsed = start.elapsed();
                    stats
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_maximal_cliques;
    use crate::report::{CliqueLineFormat, WriterReporter};
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

    /// A sparse random graph whose edge-oriented root ordering yields
    /// hundreds of roots — many `CHUNK`s — so ordered runs cross chunk
    /// boundaries, and some of whose roots take several branch steps.
    fn many_roots_graph() -> Graph {
        mce_gen::erdos_renyi(240, 1_800, 11)
    }

    const ALL_SCHEDULERS: [RootScheduler; 3] = [
        RootScheduler::Dynamic,
        RootScheduler::Static,
        RootScheduler::Splitting,
    ];

    /// `hbbmc_pp` with the given scheduler.
    fn cfg_with(scheduler: RootScheduler) -> SolverConfig {
        let mut cfg = SolverConfig::hbbmc_pp();
        cfg.scheduler = scheduler;
        cfg
    }

    /// A pool configuration that donates at every single branch step,
    /// maximising task fragmentation even on tiny graphs.
    fn aggressive_pool() -> PoolConfig {
        PoolConfig {
            step_threshold: 0,
            always_hungry: true,
        }
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let g = test_graph();
        let (seq, _) = count_maximal_cliques(&g, &SolverConfig::hbbmc_pp());
        for scheduler in ALL_SCHEDULERS {
            for threads in [1, 2, 4, 7] {
                let (par, stats) = par_count_maximal_cliques(&g, &cfg_with(scheduler), threads);
                assert_eq!(par, seq, "{scheduler:?}, threads = {threads}");
                assert_eq!(stats.maximal_cliques, seq);
            }
        }
    }

    #[test]
    fn parallel_collect_matches_reference() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g);
        let (got, _) = par_enumerate_collect(&g, &SolverConfig::r_degen(), 3);
        assert_eq!(got, expected);
        let mut cfg = SolverConfig::r_degen();
        cfg.scheduler = RootScheduler::Splitting;
        let (got, _) = par_enumerate_collect(&g, &cfg, 3);
        assert_eq!(got, expected);
    }

    #[test]
    fn streaming_reporter_sees_every_clique() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g).len() as u64;
        for scheduler in [RootScheduler::Dynamic, RootScheduler::Splitting] {
            let mut counter = CountReporter::new();
            let stats = par_enumerate_streaming(&g, &cfg_with(scheduler), 4, &mut counter);
            assert_eq!(counter.count, expected, "{scheduler:?}");
            assert_eq!(stats.maximal_cliques, expected);
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
        for scheduler in ALL_SCHEDULERS {
            for threads in [2, 8, 16] {
                let (count, _) = par_count_maximal_cliques(&g, &cfg_with(scheduler), threads);
                assert_eq!(count, 1, "{scheduler:?}, threads = {threads}");
            }
        }
    }

    /// Renders the full ordered stream of `g` to text bytes.
    fn ordered_bytes(g: &Graph, cfg: &SolverConfig, threads: usize) -> Vec<u8> {
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        par_enumerate_ordered(g, cfg, threads, &mut reporter).unwrap();
        reporter.finish().unwrap()
    }

    #[test]
    fn ordered_stream_is_byte_identical_across_threads_and_schedulers() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        assert!(!baseline.is_empty());
        for scheduler in ALL_SCHEDULERS {
            for threads in [1, 2, 4, 7] {
                let bytes = ordered_bytes(&g, &cfg_with(scheduler), threads);
                assert_eq!(
                    bytes, baseline,
                    "scheduler {scheduler:?}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn ordered_stream_with_tiny_buffer_cap_still_matches() {
        // Forces the backpressure path of the pulling schedulers: with cap 0
        // every out-of-order chunk waits until it becomes the stream head.
        // The graph has many chunks, so deposits cross chunk boundaries in
        // every order. (Splitting deposits never wait; the cap must not
        // change its stream either.)
        let g = many_roots_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        for scheduler in ALL_SCHEDULERS {
            for threads in [2, 4] {
                for cap in [0usize, 1, 3, 50] {
                    let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
                    par_enumerate_ordered_driver(
                        &g,
                        &cfg_with(scheduler),
                        threads,
                        cap,
                        PoolConfig::default(),
                        None,
                        None,
                        &mut reporter,
                    )
                    .unwrap();
                    assert_eq!(
                        reporter.finish().unwrap(),
                        baseline,
                        "{scheduler:?} x{threads}, cap {cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn ordered_splitting_with_forced_fragmentation_still_matches() {
        // Donate at every branch step: the donation tree is as deep and as
        // fragmented as it can get, and the sequence keys must still
        // reassemble the sequential stream exactly.
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        for threads in [2, 3, 4, 8] {
            let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
            let stats = par_enumerate_ordered_driver(
                &g,
                &cfg_with(RootScheduler::Splitting),
                threads,
                SEQUENCER_BUFFER_CAP,
                aggressive_pool(),
                None,
                None,
                &mut reporter,
            )
            .unwrap();
            assert_eq!(reporter.finish().unwrap(), baseline, "threads {threads}");
            assert_eq!(stats.splits, stats.steals, "every donation is executed");
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
        let mut cfg = SolverConfig::hbbmc_bare();
        cfg.scheduler = RootScheduler::Splitting;
        let mut count = CountReporter::new();
        let stats = par_enumerate_ordered_driver(
            &g,
            &cfg,
            4,
            SEQUENCER_BUFFER_CAP,
            aggressive_pool(),
            None,
            None,
            &mut count,
        )
        .unwrap();
        assert_eq!(count.count, 81); // 3^4
        assert!(stats.splits > 0, "aggressive pool must split: {stats:?}");
        assert_eq!(stats.splits, stats.steals);
    }

    #[test]
    fn ordered_stream_reports_every_clique() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g);
        for scheduler in [RootScheduler::Dynamic, RootScheduler::Splitting] {
            let mut collector = CollectReporter::new();
            let stats = par_enumerate_ordered(&g, &cfg_with(scheduler), 4, &mut collector).unwrap();
            assert_eq!(collector.into_sorted(), expected, "{scheduler:?}");
            assert_eq!(stats.maximal_cliques as usize, expected.len());
        }
    }

    #[test]
    fn ordered_stream_matches_for_vertex_oriented_presets() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::r_degen(), 1);
        for scheduler in [RootScheduler::Dynamic, RootScheduler::Splitting] {
            let mut cfg = SolverConfig::r_degen();
            cfg.scheduler = scheduler;
            for threads in [2, 5] {
                assert_eq!(ordered_bytes(&g, &cfg, threads), baseline, "{scheduler:?}");
            }
        }
    }

    #[test]
    fn ordered_stream_rejects_invalid_config() {
        let g = Graph::complete(3);
        let mut cfg = SolverConfig::hbbmc_pp();
        cfg.early_termination_t = 9;
        let mut reporter = CountReporter::new();
        assert!(par_enumerate_ordered(&g, &cfg, 2, &mut reporter).is_err());
    }

    #[test]
    fn progress_counters_reach_final_totals() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g).len() as u64;
        for threads in [1usize, 4] {
            let progress = ProgressCounters::new();
            let mut count = CountReporter::new();
            let cfg = cfg_with(RootScheduler::Splitting);
            par_enumerate_ordered_observed(&g, &cfg, threads, &mut count, &progress).unwrap();
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
        par_enumerate_ordered(&g, &SolverConfig::hbbmc_pp(), 1, &mut baseline).unwrap();
        let full = baseline.cliques;
        assert!(full.len() > 4);
        for scheduler in ALL_SCHEDULERS {
            for threads in [1usize, 2, 4] {
                for keep in [0usize, 1, 3] {
                    let mut reporter = PanicAfter::new(keep);
                    let err = par_enumerate_ordered_driver(
                        &g,
                        &cfg_with(scheduler),
                        threads,
                        SEQUENCER_BUFFER_CAP,
                        PoolConfig::default(),
                        None,
                        None,
                        &mut reporter,
                    )
                    .unwrap_err();
                    match err {
                        EngineError::WorkerPanic { detail } => {
                            assert_eq!(detail, "injected reporter fault")
                        }
                        other => panic!("expected WorkerPanic, got {other:?}"),
                    }
                    assert_eq!(
                        reporter.collected,
                        &full[..keep],
                        "{scheduler:?} x{threads}, keep {keep}: the cliques emitted \
                         before the fault are the deterministic prefix"
                    );
                }
            }
        }
    }

    #[test]
    fn splitting_worker_panic_with_forced_fragmentation_does_not_hang() {
        // The panic fires inside `Sequencer::deposit` while pool items and
        // donated tasks are in flight: every claimed item must still be
        // completed, the pool must drain, and the driver must return the
        // typed error instead of hanging `claim()` forever.
        let g = mce_gen::moon_moser(4);
        let mut cfg = SolverConfig::hbbmc_bare();
        cfg.scheduler = RootScheduler::Splitting;
        for threads in [2usize, 4] {
            let mut reporter = PanicAfter::new(5);
            let err = par_enumerate_ordered_driver(
                &g,
                &cfg,
                threads,
                SEQUENCER_BUFFER_CAP,
                aggressive_pool(),
                None,
                None,
                &mut reporter,
            )
            .unwrap_err();
            assert!(matches!(err, EngineError::WorkerPanic { .. }));
            assert_eq!(reporter.collected.len(), 5, "threads {threads}");
        }
    }

    #[test]
    fn unordered_worker_panic_propagates_after_a_clean_drain() {
        let g = test_graph();
        for scheduler in [RootScheduler::Dynamic, RootScheduler::Splitting] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let mut reporter = PanicAfter::new(2);
                par_enumerate_streaming(&g, &cfg_with(scheduler), 4, &mut reporter);
            }));
            let payload = caught.expect_err("the fault must reach the caller");
            assert_eq!(
                payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default(),
                "injected reporter fault",
                "{scheduler:?}"
            );
        }
    }

    #[test]
    fn deadline_truncates_to_a_byte_prefix() {
        let g = many_roots_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        for scheduler in ALL_SCHEDULERS {
            for threads in [1usize, 2, 4] {
                let budget = Budget::within(std::time::Duration::ZERO);
                let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
                let (stats, outcome) = par_enumerate_ordered_budgeted(
                    &g,
                    &cfg_with(scheduler),
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
                    "{scheduler:?} x{threads}"
                );
                assert!(stats.terminated_by_budget >= 1);
                assert_eq!(
                    &baseline[..bytes.len()],
                    &bytes[..],
                    "{scheduler:?} x{threads}: expired deadline still yields a byte-prefix"
                );
            }
        }
    }

    /// Branch steps a sequential run has consumed when each root rank
    /// starts (`marks[rank]`), plus the whole run's (`marks[root_count]`).
    fn step_marks(g: &Graph, cfg: &SolverConfig) -> Vec<u64> {
        let solver = Solver::new(g, *cfg).unwrap();
        let plan = solver.prepare();
        let state = BudgetState::new(&Budget::unlimited());
        let mut worker = WorkerState::new();
        let mut sink = CountReporter::new();
        solver.run_on_plan(&plan, 0..0, true, &mut worker, Some(&state), &mut sink);
        let mut marks = vec![state.steps_taken()];
        for rank in 0..plan.root_count() {
            solver.run_on_plan(
                &plan,
                rank..rank + 1,
                false,
                &mut worker,
                Some(&state),
                &mut sink,
            );
            marks.push(state.steps_taken());
        }
        marks
    }

    /// The sequential stream of the rank-independent output and `ranks`.
    fn sequential_bytes(g: &Graph, cfg: &SolverConfig, ranks: Range<usize>) -> Vec<u8> {
        let solver = Solver::new(g, *cfg).unwrap();
        let plan = solver.prepare();
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        solver.run_on_plan(
            &plan,
            ranks,
            true,
            &mut WorkerState::new(),
            None,
            &mut reporter,
        );
        reporter.finish().unwrap()
    }

    #[test]
    fn step_budget_cut_inside_a_chunk_or_on_its_boundary_is_a_byte_prefix() {
        let g = many_roots_graph();
        let cfg = SolverConfig::hbbmc_pp();
        let baseline = ordered_bytes(&g, &cfg, 1);
        let marks = step_marks(&g, &cfg);
        let roots = marks.len() - 1;
        assert!(roots > 8 * CHUNK, "only {roots} roots");
        // A budget that runs out exactly where the fourth chunk ends, and one
        // that runs out after the first step of a multi-step rank in the
        // middle of a chunk.
        let boundary = 4 * CHUNK;
        let middle = (CHUNK..roots)
            .filter(|r| (CHUNK / 4..3 * CHUNK / 4).contains(&(r % CHUNK)))
            .find(|&r| marks[r + 1] - marks[r] >= 2)
            .expect("some mid-chunk rank takes several branch steps");
        for (steps, whole_ranks) in [(marks[boundary], boundary), (marks[middle] + 1, middle)] {
            // The sequential run emits every rank before the cut in full.
            let before_cut = sequential_bytes(&g, &cfg, 0..whole_ranks);
            for scheduler in ALL_SCHEDULERS {
                for threads in [1usize, 2, 4] {
                    let budget = Budget::steps(steps);
                    let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
                    let (_, outcome) = par_enumerate_ordered_budgeted(
                        &g,
                        &cfg_with(scheduler),
                        threads,
                        &budget,
                        None,
                        &mut reporter,
                    )
                    .unwrap();
                    let bytes = reporter.finish().unwrap();
                    let label = format!("{scheduler:?} x{threads}, {steps} steps");
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
            block.push(clique);
        }
        block
    }

    #[test]
    fn sequencer_reorders_out_of_order_deposits() {
        let mut out = CollectReporter::new();
        let mut seq = Sequencer::new(&mut out);
        // Slots are rank ranges keyed by their first rank; emitting one
        // moves the head past its whole range.
        seq.deposit(3..5, SeqKey::root(), block(&[&[3], &[4, 5]]), false);
        seq.deposit(0..1, SeqKey::root(), block(&[&[0]]), false);
        assert_eq!(seq.next, 1);
        assert_eq!(seq.buffered_cliques, 2);
        seq.deposit(1..3, SeqKey::root(), block(&[&[1, 2]]), false);
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
        // Rank 0 donates twice; parts arrive thief-first and out of key order.
        seq.register_donation(0);
        seq.register_donation(0);
        let first = SeqKey::root().child(u32::MAX);
        let second = SeqKey::root().child(u32::MAX - 1);
        seq.deposit(0..1, first, block(&[&[30]]), false);
        assert_eq!(seq.next, 0, "incomplete rank must not emit");
        seq.deposit(0..1, SeqKey::root(), block(&[&[10]]), false);
        assert_eq!(seq.next, 0);
        seq.deposit(0..1, second, block(&[&[20]]), false);
        // Root part first, then the second (deeper) donation, then the first.
        assert_eq!(seq.next, 1);
        assert_eq!(seq.buffered_cliques, 0);
        drop(seq);
        assert_eq!(out.cliques, vec![vec![10], vec![20], vec![30]]);
    }

    #[test]
    fn static_chunks_stripe_every_rank_exactly_once() {
        for (threads, total) in [(1, 40), (2, 16), (3, 100), (4, 33)] {
            let mut seen = vec![0usize; total];
            for worker in 0..threads {
                for chunk in static_chunks(worker, threads, total) {
                    assert_eq!(chunk.start % CHUNK, 0);
                    assert_eq!(chunk.start / CHUNK % threads, worker);
                    for rank in chunk {
                        seen[rank] += 1;
                    }
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{threads} x {total}: {seen:?}"
            );
        }
    }

    #[test]
    fn stealing_ranks_cover_every_rank_exactly_once() {
        let counter = AtomicUsize::new(0);
        let mut seen = vec![0usize; 100];
        // Two interleaved consumers of the same counter.
        let mut a = StealingChunks::new(&counter, 100).flatten();
        let mut b = StealingChunks::new(&counter, 100).flatten();
        loop {
            let ra = a.next();
            let rb = b.next();
            if ra.is_none() && rb.is_none() {
                break;
            }
            for r in [ra, rb].into_iter().flatten() {
                seen[r] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn splitting_stats_balance_on_a_skewed_graph() {
        // A dense core plus sparse periphery: with an aggressive pool the
        // core's roots must donate, and splits/steals must balance. The bare
        // preset keeps the core's recursion alive (GR/ET would resolve it
        // without branching).
        let core = mce_gen::moon_moser(3);
        let mut g_edges = core.edges().collect::<Vec<_>>();
        for v in 9..40u32 {
            g_edges.push((v - 1, v));
        }
        let g = Graph::from_edges(40, g_edges).unwrap();
        let expected = naive_maximal_cliques(&g).len() as u64;
        let mut cfg = SolverConfig::hbbmc_bare();
        cfg.scheduler = RootScheduler::Splitting;
        let solver = Solver::new(&g, cfg).unwrap();
        let plan = solver.prepare();
        let results =
            run_workers_splitting(&solver, &plan, 4, aggressive_pool(), CountReporter::new);
        let mut total = 0;
        let mut merged = EnumerationStats::default();
        for (reporter, stats) in results {
            total += reporter.count;
            merged.merge(&stats);
        }
        assert_eq!(total, expected);
        assert!(merged.splits > 0);
        assert_eq!(merged.splits, merged.steals);
        assert!(merged.busy_time > std::time::Duration::ZERO);
    }
}
