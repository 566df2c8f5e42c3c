//! The shared task pool of the parallel engine: self-contained sub-branch
//! tasks, their deterministic sequence keys, and the std-only injector that
//! hands out donated tasks and chunks of root ranks.
//!
//! Workers claim from one [`TaskPool`]: donated tasks first (FIFO), then
//! chunks of [`CHUNK`] consecutive root ranks in rank order, below the
//! plan's published watermark. A streamed plan starts with nothing published:
//! the worker running its truss peel publishes each chunk of ranks once the
//! peel has removed their edges. Root branches are
//! heavily skewed, and a run that only hands out whole roots can never finish
//! faster than its largest root subtree. Every chunk therefore runs with
//! **mid-branch work donation** armed: a worker that has been grinding one
//! root for a while, and observes starving peers, packages the unexplored
//! sibling candidates of its shallowest recursion frame into a
//! [`BranchTask`] — the `R` prefix, the `(C, X)` bitsets, the remaining branch
//! list and a snapshot of the root's [`LocalGraph`] — and pushes it to the
//! pool. Idle workers steal those tasks and resume them through the same
//! allocation-free recursion (and may split them again). Without starving
//! peers the donation check costs a counter increment per branch step, plus
//! one relaxed load once a root has passed the step threshold.
//!
//! Backpressure is applied at the claim, never at a deposit: while more than
//! [`PoolConfig::parked_cap`] cliques are parked out of order in the ordered
//! sequencer, the pool holds back new chunks (donated tasks are still handed
//! out). A held-back worker counts as starving, so the slow root at the head
//! of the stream donates to it.
//!
//! Everything here is `std`-only by design: the pool is a `Mutex<VecDeque>`
//! plus a `Condvar`. The build environment vendors no lock-free queue crates,
//! and the pool is touched once per chunk of roots or donated task, so a
//! mutex injector is nowhere near the bottleneck.
//!
//! # Why donated output can still be ordered deterministically
//!
//! The ordered engine behind every
//! [`QuerySpec::Enumerate`](crate::QuerySpec::Enumerate) session must emit a
//! byte stream that is independent of the thread count. The sequencer's slots —
//! runs of consecutive root ranks keyed by their first rank — provide the
//! coarse order. A rank that donates ends its slot, so donated work always
//! belongs to the last rank of a slot, and within that slot every part carries
//! a [`SeqKey`] that linearises the donation tree:
//!
//! * the slot's own part (its ranks' retained output) has the empty key;
//! * a donor's `i`-th donation (counting from 0) gets the donor's key with
//!   `u32::MAX - i` appended.
//!
//! Keys compare lexicographically with the *shorter-prefix-first* rule, which
//! encodes exactly the sequential emission order: a donor's retained work is
//! always a prefix of what it would have emitted sequentially (its key, a
//! strict prefix, sorts first), donated siblings come after the subtree the
//! donor keeps, and a *later* donation is always carved from *deeper* in the
//! tree than an earlier one — i.e. it precedes the earlier donation in
//! sequential order, which the decreasing counter encodes. Sorting a
//! completed slot's parts by key therefore reproduces the sequential stream
//! exactly; see the sequencer in [`parallel`](crate::parallel).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
#[cfg(test)]
use std::time::{Duration, Instant};

use mce_graph::{BitSet, VertexId};

use crate::local::LocalGraph;

/// Root ranks per claimed chunk. Each chunk is one solver call into one clique
/// block and (unless a rank donates) one sequencer deposit, so the per-claim
/// lock hand-offs are paid once per chunk; small enough that a chunk of
/// skewed roots still spreads over the workers.
pub(crate) const CHUNK: usize = 16;

/// Default number of branch steps a worker invests in one root (or donated
/// task) before it considers donating (see [`PoolConfig::step_threshold`]).
pub(crate) const DEFAULT_STEP_THRESHOLD: u32 = 512;

/// Out-of-order cliques the ordered sequencer may park before the pool holds
/// back new chunks. Bounds the ordered run's memory at roughly this many
/// cliques (plus one in-flight chunk per worker) instead of the full result
/// set when one early root branch is much slower than the rest.
pub(crate) const SEQUENCER_BUFFER_CAP: usize = 1 << 16;

/// Position of a part's output within its sequencer slot.
///
/// Compares lexicographically (shorter prefix first), which matches the
/// sequential emission order of the donation tree — see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeqKey(Vec<u32>);

impl SeqKey {
    /// The key of a slot's own part: the empty sequence.
    pub fn root() -> Self {
        SeqKey(Vec::new())
    }

    /// The key of a donation made by the part holding `self`, given the
    /// donor's decreasing donation counter.
    pub fn child(&self, counter: u32) -> Self {
        let mut path = Vec::with_capacity(self.0.len() + 1);
        path.extend_from_slice(&self.0);
        path.push(counter);
        SeqKey(path)
    }
}

/// A self-contained, stealable continuation of one recursion frame: "branch
/// on each of `branch` under `(partial, c, x)` inside `lg`".
///
/// Everything a worker needs to resume the donated siblings is carried by
/// value — no references into the donor's scratch arena — so the task can
/// cross threads and outlive the donor's frames.
#[derive(Clone, Debug)]
pub(crate) struct BranchTask {
    /// First root rank of the sequencer slot the donated work belongs to
    /// (coarse sequencing key).
    pub slot: usize,
    /// Position of this task's output within the slot (fine sequencing key).
    pub key: SeqKey,
    /// The partial clique `R` at the donated frame (original vertex ids).
    pub partial: Vec<VertexId>,
    /// Candidate set of the donated frame, current vertex already excluded.
    pub c: BitSet,
    /// Exclusion set of the donated frame, current vertex already included.
    pub x: BitSet,
    /// The unexplored sibling candidates, in branching order (local ids).
    pub branch: Vec<usize>,
    /// Snapshot of the root branch's dense local graph.
    pub lg: LocalGraph,
}

/// Where a donating solver pushes split-off work: the ordered engine's sink,
/// which registers each donation with the output sequencer before the task
/// enters the pool.
pub(crate) trait DonationSink: Sync {
    /// Cheap check consulted once per branch step: is anyone starving?
    fn hungry(&self) -> bool;
    /// Branch steps a worker invests in one root or task before donating.
    fn step_threshold(&self) -> u32;
    /// Hands a packaged task over to the pool.
    fn donate(&self, task: BranchTask);
}

/// Tunables of a [`TaskPool`], separated out so tests can force aggressive
/// splitting, tight backpressure and perturbed interleavings on tiny graphs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PoolConfig {
    /// Branch steps between donation attempts.
    pub step_threshold: u32,
    /// Ignore the starvation signal and donate at every opportunity
    /// (test-only: maximises task fragmentation).
    pub always_hungry: bool,
    /// Seed of the interleaving hook (test-only): when set, the claim,
    /// deposit, donate and budget-check points yield the thread on a
    /// pseudo-random schedule drawn from it. See [`TaskPool::interleave`].
    pub yield_seed: Option<u64>,
    /// Parked out-of-order cliques above which no new chunk is handed out.
    pub parked_cap: usize,
    /// Test-only: the peel panics before publishing this rank.
    #[cfg(test)]
    pub peel_panic_at: Option<usize>,
    /// Test-only: the peel waits before publishing this rank until the
    /// session stops, so a budget cut lands while the peel runs.
    #[cfg(test)]
    pub peel_hold_at: Option<usize>,
    /// Test-only: the worker that claims rank 0 waits until another worker
    /// starves before it runs the rank, so a long head root must donate.
    #[cfg(test)]
    pub head_waits_for_starving: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            step_threshold: DEFAULT_STEP_THRESHOLD,
            always_hungry: false,
            yield_seed: None,
            parked_cap: SEQUENCER_BUFFER_CAP,
            #[cfg(test)]
            peel_panic_at: None,
            #[cfg(test)]
            peel_hold_at: None,
            #[cfg(test)]
            head_waits_for_starving: false,
        }
    }
}

/// One unit of work handed to a worker.
pub(crate) enum PoolWork {
    /// Run these consecutive root ranks.
    Chunk(Range<usize>),
    /// Resume a donated sub-branch.
    Task(Box<BranchTask>),
}

struct PoolState {
    /// Donated tasks, stolen FIFO (oldest donations carry the shallowest —
    /// largest — subtrees and belong to the earliest slots).
    tasks: VecDeque<BranchTask>,
    /// First root rank not yet handed out.
    next_rank: usize,
    /// Ranks below this are final in the plan and may be handed out.
    published: usize,
    /// Workers currently executing claimed work (a donor counts as active,
    /// so the pool can only drain once every potential producer is done).
    active: usize,
}

/// The shared injector of the parallel engine.
///
/// Claiming prefers donated tasks over fresh root chunks: donated work
/// belongs to already-started (earliest) slots, so finishing it first keeps
/// the ordered sequencer's head moving and bounds buffering.
pub(crate) struct TaskPool {
    state: Mutex<PoolState>,
    /// Signalled when work arrives, a claimed item completes while someone
    /// waits, or the pool drains.
    ready: Condvar,
    /// Number of workers currently blocked in [`TaskPool::claim`]. Changed
    /// under the state lock; read with a relaxed load by the donation check
    /// in the enumeration hot loop.
    starving: AtomicUsize,
    /// Cliques parked in the ordered sequencer, stored after every deposit
    /// under the sequencer's lock. Claims read it under the state lock, and
    /// the depositor's next [`TaskPool::complete`] takes that lock before it
    /// wakes held-back workers, so no wake-up is lost.
    parked: AtomicUsize,
    /// Calls of the interleaving hook so far (its schedule position).
    ticks: AtomicU64,
    total: usize,
    config: PoolConfig,
}

impl TaskPool {
    /// A pool over the root ranks `0..total`, of which `0..published` may be
    /// handed out so far.
    pub fn new(total: usize, published: usize, config: PoolConfig) -> Self {
        TaskPool {
            state: Mutex::new(PoolState {
                tasks: VecDeque::new(),
                next_rank: 0,
                published,
                active: 0,
            }),
            ready: Condvar::new(),
            starving: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            ticks: AtomicU64::new(0),
            total,
            config,
        }
    }

    /// Blocks until work is available or the run is complete. Returns `None`
    /// exactly once per worker, when every rank was handed out, no task
    /// remains *and* no active worker could still donate more. While the
    /// peel has ranks left to publish, an idle pool has not drained.
    ///
    /// New chunks are held back while the sequencer parks more than the cap
    /// and some worker is active — that worker's deposit is what drains the
    /// buffer, so with nobody active a chunk is handed out regardless and the
    /// run always progresses.
    pub fn claim(&self) -> Option<PoolWork> {
        self.interleave();
        // Poison recovery throughout: worker panics are caught and contained
        // by the engine in [`parallel`](crate::parallel), and the drain
        // protocol it runs after a fault needs the pool to stay usable.
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(task) = state.tasks.pop_front() {
                state.active += 1;
                return Some(PoolWork::Task(Box::new(task)));
            }
            let held_back =
                state.active > 0 && self.parked.load(Ordering::Relaxed) > self.config.parked_cap;
            if state.next_rank < state.published && !held_back {
                let start = state.next_rank;
                state.next_rank = (start + CHUNK).min(state.published);
                state.active += 1;
                let chunk = start..state.next_rank;
                #[cfg(test)]
                if start == 0 && self.config.head_waits_for_starving {
                    drop(state);
                    self.wait_for_starving();
                }
                return Some(PoolWork::Chunk(chunk));
            }
            if state.active == 0 && state.next_rank == self.total {
                // Termination: every chunk claimed, every task executed, no
                // producer left. Wake the other sleepers so they exit too.
                self.ready.notify_all();
                return None;
            }
            self.starving.fetch_add(1, Ordering::Relaxed);
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
            self.starving.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Marks one previously claimed unit of work as finished, waking the
    /// waiting workers: the pool may have drained, or the deposit that
    /// preceded this call may have released the backpressure.
    pub fn complete(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active -= 1;
        let waiting = self.starving.load(Ordering::Relaxed) > 0;
        drop(state);
        if waiting {
            self.ready.notify_all();
        }
    }

    /// Pushes a donated task and wakes one starving worker.
    pub fn push(&self, task: BranchTask) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.tasks.push_back(task);
        drop(state);
        self.ready.notify_one();
    }

    /// Whether any worker is starving (or the test override says so): the
    /// donation check of the enumeration hot loop.
    pub fn hungry(&self) -> bool {
        self.config.always_hungry || self.starving.load(Ordering::Relaxed) > 0
    }

    /// Branch steps a worker invests in one root or task before donating.
    pub fn step_threshold(&self) -> u32 {
        self.config.step_threshold
    }

    /// Records how many cliques the sequencer now parks (called under the
    /// sequencer's lock, so the last store is the current count).
    pub fn set_parked(&self, cliques: usize) {
        self.parked.store(cliques, Ordering::Relaxed);
    }

    /// Makes the root ranks below `end` claimable, once the peel has ranked
    /// their edges. The state lock orders the peel's relaxed rank stores
    /// before any claim that hands those ranks out. Wakes one starving
    /// worker for the new chunk, or all of them once every rank is
    /// published.
    pub fn publish(&self, end: usize) {
        self.interleave();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.published = state.published.max(end);
        drop(state);
        if end == self.total {
            self.ready.notify_all();
        } else {
            self.ready.notify_one();
        }
    }

    /// Hands out no further root chunks: the ordered stream was cut, so
    /// nothing a later chunk produces could be emitted. Donated tasks still
    /// drain, keeping the sequencer's part accounting exact. Returns the
    /// first rank that was never handed out.
    pub fn close(&self) -> usize {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let cut = state.next_rank;
        state.next_rank = self.total;
        drop(state);
        self.ready.notify_all();
        cut
    }

    /// The peel's test hooks, run before it publishes the ranks below `end`:
    /// [`PoolConfig::peel_panic_at`] panics, and
    /// [`PoolConfig::peel_hold_at`] waits until `stopped()` (giving up with
    /// a panic after ten seconds).
    #[cfg(test)]
    pub fn peel_hooks(&self, end: usize, stopped: impl Fn() -> bool) {
        if self.config.peel_panic_at.is_some_and(|at| end >= at) {
            panic!("injected peel fault");
        }
        if self.config.peel_hold_at.is_some_and(|at| end >= at) {
            let give_up = Instant::now() + Duration::from_secs(10);
            while !stopped() {
                assert!(Instant::now() < give_up, "the held peel was never stopped");
                thread::yield_now();
            }
        }
    }

    /// Waits until some worker starves (giving up with a panic after ten
    /// seconds): [`PoolConfig::head_waits_for_starving`].
    #[cfg(test)]
    fn wait_for_starving(&self) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while self.starving.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < give_up, "no worker ever starved");
            thread::yield_now();
        }
    }

    /// The interleaving hook: with [`PoolConfig::yield_seed`] set, yields the
    /// calling thread zero to three times on a schedule drawn from the seed,
    /// so tests can drive claims, deposits, donations and budget checks
    /// through orders a quiet run rarely takes. One branch otherwise.
    pub fn interleave(&self) {
        if let Some(seed) = self.config.yield_seed {
            let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
            for _ in 0..splitmix64(seed ^ tick.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 4 {
                thread::yield_now();
            }
        }
    }
}

/// One step of the SplitMix64 generator: a well-mixed 64-bit value per input.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(slot: usize) -> BranchTask {
        BranchTask {
            slot,
            key: SeqKey::root(),
            partial: Vec::new(),
            c: BitSet::with_capacity(0),
            x: BitSet::with_capacity(0),
            branch: Vec::new(),
            lg: LocalGraph::new(),
        }
    }

    #[test]
    fn seq_keys_order_like_the_sequential_stream() {
        let root = SeqKey::root();
        let first_donation = root.child(u32::MAX);
        let second_donation = root.child(u32::MAX - 1);
        let nested = first_donation.child(u32::MAX);
        // Donor's retained output before everything it donated.
        assert!(root < first_donation);
        assert!(root < second_donation);
        // Later donations are deeper in the tree, i.e. sequentially earlier.
        assert!(second_donation < first_donation);
        // A thief's own retained output precedes its re-donations.
        assert!(first_donation < nested);
        // And a re-donation of the first donation still follows the donor's
        // second (deeper) donation.
        assert!(second_donation < nested);
    }

    #[test]
    fn pool_hands_out_chunks_then_terminates() {
        let pool = TaskPool::new(CHUNK + 3, CHUNK + 3, PoolConfig::default());
        let Some(PoolWork::Chunk(a)) = pool.claim() else {
            panic!("expected a chunk")
        };
        let Some(PoolWork::Chunk(b)) = pool.claim() else {
            panic!("expected a chunk")
        };
        assert_eq!((a, b), (0..CHUNK, CHUNK..CHUNK + 3));
        pool.complete();
        pool.complete();
        assert!(pool.claim().is_none());
    }

    #[test]
    fn pool_prefers_donated_tasks_fifo() {
        let pool = TaskPool::new(1, 1, PoolConfig::default());
        pool.push(task(3));
        pool.push(task(5));
        match pool.claim() {
            Some(PoolWork::Task(t)) => assert_eq!(t.slot, 3),
            _ => panic!("expected the oldest donated task"),
        }
        match pool.claim() {
            Some(PoolWork::Task(t)) => assert_eq!(t.slot, 5),
            _ => panic!("expected the second donated task"),
        }
    }

    #[test]
    fn starving_workers_wake_on_donation() {
        let pool = TaskPool::new(1, 1, PoolConfig::default());
        // A "donor" holds the only chunk, keeping the pool active.
        assert!(matches!(pool.claim(), Some(PoolWork::Chunk(r)) if r == (0..1)));
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| pool.claim());
            // Give the consumer a moment to block on the condvar, then donate.
            std::thread::sleep(std::time::Duration::from_millis(10));
            pool.push(task(1));
            let got = consumer.join().expect("consumer panicked");
            assert!(matches!(got, Some(PoolWork::Task(t)) if t.slot == 1));
        });
        pool.complete(); // the stolen task
        pool.complete(); // the donor's chunk
        assert!(pool.claim().is_none());
    }

    #[test]
    fn over_the_cap_new_chunks_wait_but_tasks_do_not() {
        let config = PoolConfig {
            parked_cap: 1,
            ..PoolConfig::default()
        };
        let pool = TaskPool::new(3 * CHUNK, 3 * CHUNK, config);
        assert!(matches!(pool.claim(), Some(PoolWork::Chunk(_))));
        pool.set_parked(2);
        pool.push(task(0));
        assert!(matches!(pool.claim(), Some(PoolWork::Task(_))));
        std::thread::scope(|scope| {
            let held_back = scope.spawn(|| pool.claim());
            // A held-back worker counts as starving; wait until it blocks.
            while !pool.hungry() {
                std::thread::yield_now();
            }
            assert!(
                !held_back.is_finished(),
                "over the cap, no chunk is handed out"
            );
            pool.set_parked(1);
            pool.complete();
            let got = held_back.join().expect("claimer panicked");
            assert!(matches!(got, Some(PoolWork::Chunk(r)) if r == (CHUNK..2 * CHUNK)));
        });
    }

    #[test]
    fn streamed_pool_hands_out_published_ranks_only() {
        let pool = TaskPool::new(3 * CHUNK, 0, PoolConfig::default());
        std::thread::scope(|scope| {
            // Nothing published and nobody active: not drained, so wait.
            let waiting = scope.spawn(|| pool.claim());
            while !pool.hungry() {
                std::thread::yield_now();
            }
            pool.publish(CHUNK + 3);
            let got = waiting.join().expect("claimer panicked");
            assert!(matches!(got, Some(PoolWork::Chunk(r)) if r == (0..CHUNK)));
        });
        // A chunk never reaches past the watermark.
        assert!(matches!(pool.claim(), Some(PoolWork::Chunk(r)) if r == (CHUNK..CHUNK + 3)));
        pool.complete();
        pool.complete();
        // The peel stops: the first rank never handed out is where the
        // stream ends, and the pool then drains.
        assert_eq!(pool.close(), CHUNK + 3);
        assert!(pool.claim().is_none());
    }

    #[test]
    fn closed_pool_hands_out_no_more_chunks() {
        let pool = TaskPool::new(4 * CHUNK, 4 * CHUNK, PoolConfig::default());
        assert!(matches!(pool.claim(), Some(PoolWork::Chunk(_))));
        pool.close();
        pool.complete();
        assert!(pool.claim().is_none());
    }

    #[test]
    fn empty_pool_terminates_immediately() {
        let pool = TaskPool::new(0, 0, PoolConfig::default());
        assert!(pool.claim().is_none());
    }

    #[test]
    fn hungry_reflects_starvation_and_test_override() {
        let pool = TaskPool::new(0, 0, PoolConfig::default());
        assert!(!pool.hungry());
        let aggressive = TaskPool::new(
            0,
            0,
            PoolConfig {
                always_hungry: true,
                step_threshold: 0,
                ..PoolConfig::default()
            },
        );
        assert!(aggressive.hungry());
        assert_eq!(aggressive.step_threshold(), 0);
    }
}
