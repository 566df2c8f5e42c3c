//! Verifies the allocation-free steady state of the enumeration hot path.
//!
//! A counting global allocator wraps the system allocator; the tests run the
//! solver once to warm an [`EnumerationState`]'s scratch buffers and then
//! re-run it on the *same* state, asserting that the warm run's allocation
//! count is a small constant — independent of the number of recursive calls.
//! (The warm run still allocates during the root-phase preprocessing: the
//! graph reduction and the vertex/edge ordering build `O(n + m)` vectors.
//! What must not allocate is the recursion itself, which performs orders of
//! magnitude more node visits than the asserted allocation budget.)
//!
//! The library crates `forbid(unsafe_code)`; the `GlobalAlloc` impl is
//! confined to this test crate.
//!
//! Counts are per thread: the allocator counts only on a thread whose
//! `COUNTING` flag [`allocations_of`] has turned on, into that thread's own
//! counter, so tests running in parallel never add to each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hbbmc::MaxCliqueState;
use hbbmc::{maximum_clique_bb_with_state, CountReporter, EnumerationState, Solver, SolverConfig};
use mce_gen::{erdos_renyi, moon_moser};

struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations while `COUNTING` was on.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is being measured. `try_with`
/// because the allocator may run while the thread's locals are torn down.
fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it only touches
// const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing Vec reallocates; that counts as allocator traffic too.
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` on this thread with counting on and returns its result with the
/// number of allocations it made.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Warm-runs `config` on the graph, then measures the allocations of a
/// second run reusing the same state. Returns (warm-run allocations,
/// recursive calls of the warm run).
fn warm_run_allocations(g: &mce_graph::Graph, config: &SolverConfig) -> (u64, u64) {
    let solver = Solver::new(g, *config).expect("valid config");
    let mut state = EnumerationState::new();
    let mut reporter = CountReporter::new();
    solver.run_with_state(&mut state, &mut reporter);

    let mut reporter = CountReporter::new();
    let (stats, allocs) = allocations_of(|| solver.run_with_state(&mut state, &mut reporter));
    (allocs, stats.recursive_calls)
}

#[test]
fn steady_state_recursion_does_not_allocate() {
    // Moon–Moser K_{3,3,3,3,3,3}: 729 maximal cliques, thousands of recursive
    // calls, every branch dense. ET is disabled (t = 0) because the
    // early-termination emitter intentionally allocates proportional to its
    // output; the claim under test is the branching recursion itself.
    let g = moon_moser(6);
    let mut config = SolverConfig::hbbmc_plus(); // edge-oriented root, t = 0
    config.graph_reduction = false;
    let (allocs, calls) = warm_run_allocations(&g, &config);
    assert!(
        calls > 1_000,
        "expected a deep recursion, got {calls} calls"
    );
    // The per-run budget covers the root plan (edge ordering: a fixed number
    // of O(m) vectors) only. ~30 observed; 120 leaves slack without letting
    // per-node allocations (thousands) hide.
    assert!(
        allocs < 120,
        "warm run allocated {allocs} times over {calls} recursive calls"
    );
}

#[test]
fn steady_state_vertex_recursion_does_not_allocate() {
    let g = erdos_renyi(300, 4_500, 7);
    let mut config = SolverConfig::r_degen(); // vertex-oriented root, classic pivot
    config.graph_reduction = false;
    let (allocs, calls) = warm_run_allocations(&g, &config);
    assert!(
        calls > 5_000,
        "expected a deep recursion, got {calls} calls"
    );
    // The degeneracy ordering allocates one bucket vector per degree value
    // (~240 observed for this instance), so the vertex-root plan budget
    // scales with the max degree — but never with the recursion volume.
    assert!(
        allocs < 600 && allocs * 20 < calls,
        "warm run allocated {allocs} times over {calls} recursive calls"
    );
}

#[test]
fn steady_state_max_clique_search_does_not_allocate() {
    // The branch-and-bound engine shares the enumeration's scratch arena and
    // adds only two coloring bitsets: a warm re-run on the same
    // MaxCliqueState must allocate a small per-plan constant (the degeneracy
    // ordering's vectors and the returned clique), never per node.
    let g = erdos_renyi(300, 4_500, 7);
    let mut state = MaxCliqueState::new();
    let (_, warmup) = maximum_clique_bb_with_state(&g, &mut state);
    assert!(
        warmup.recursive_calls > 100,
        "expected a non-trivial search, got {} calls",
        warmup.recursive_calls
    );
    let ((best, stats), allocs) = allocations_of(|| maximum_clique_bb_with_state(&g, &mut state));
    assert!(!best.is_empty());
    // The degeneracy ordering allocates one bucket vector per degree value
    // (~240 for this instance, same budget as the vertex-root plan above);
    // the search itself must not add to it.
    assert!(
        allocs < 600,
        "warm B&B run allocated {allocs} times over {} recursive calls",
        stats.recursive_calls
    );
    // And the steady state is exactly steady: a third identical run costs
    // the same fixed plan allocations, not one more.
    let (_, allocs_again) = allocations_of(|| maximum_clique_bb_with_state(&g, &mut state));
    assert_eq!(
        allocs, allocs_again,
        "warm B&B runs must have a fixed allocation plan"
    );
}

#[test]
fn fused_kernels_are_allocation_free() {
    // Once the destination bitset and branch vector are warm, the fused word
    // kernels touch the allocator exactly never.
    use mce_graph::BitSet;
    let mut a = BitSet::with_capacity(4096);
    let row: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 << (i % 64))
        .collect();
    for i in (0..4096).step_by(3) {
        a.insert(i);
    }
    let mut out = BitSet::with_capacity(4096);
    let mut bits = Vec::with_capacity(4096);
    // Warm the destination buffers.
    a.intersect_into_count(&row, &mut out);
    a.difference_into(&row, &mut out);
    bits.clear();
    a.and_not_collect(&row, &mut bits);

    let ((), allocs) = allocations_of(|| {
        for _ in 0..256 {
            a.intersect_into_count(&row, &mut out);
            a.difference_into(&row, &mut out);
            let _ = a.intersection_len_words(&row);
            bits.clear();
            a.and_not_collect(&row, &mut bits);
        }
    });
    assert_eq!(allocs, 0, "fused kernels allocated in the steady state");
}

#[test]
fn steady_state_top_k_search_reuses_its_worker() {
    // The dedicated top-k search rides the same WorkerState scratch slab as
    // plain enumeration: a warm re-run pays the per-plan vectors (root
    // ordering, degeneracy cores, the bound's k-entry heap) but never
    // allocates per node, even with the coloring bound firing.
    use hbbmc::{CollectReporter, Query, QuerySpec};
    let g = erdos_renyi(200, 3_000, 13);
    let run = |reporter: &mut CollectReporter| {
        hbbmc::run_query(&g, Query::new(QuerySpec::TopKBySize { k: 4 }), reporter)
            .expect("valid top-k query")
    };
    let mut reporter = CollectReporter::new();
    let warm = run(&mut reporter);
    assert!(warm.stats.recursive_calls > 100, "trivial search");
    let mut reporter = CollectReporter::new();
    let (rerun, allocs) = allocations_of(|| run(&mut reporter));
    // The query layer rebuilds its per-run state (no cross-run cache), so
    // each run pays the per-plan vectors — but that cost is a constant of
    // the plan, never of the branch count: a second identical run costs
    // exactly the same, and the total stays far below the call volume.
    let mut reporter = CollectReporter::new();
    let (_, allocs_again) = allocations_of(|| run(&mut reporter));
    assert_eq!(
        allocs, allocs_again,
        "top-k runs must have a fixed allocation plan"
    );
    assert!(
        allocs < 1_200 && allocs * 4 < rerun.stats.recursive_calls,
        "top-k run allocated {allocs} times over {} recursive calls",
        rerun.stats.recursive_calls
    );
}

#[test]
fn allocations_stay_flat_as_recursion_grows() {
    // Tripling the recursion volume must not move the warm-run allocation
    // count beyond the constant root-phase budget: allocations are
    // per-plan, not per-node.
    let mut config = SolverConfig::hbbmc_plus();
    config.graph_reduction = false;
    let (small_allocs, small_calls) = warm_run_allocations(&moon_moser(5), &config);
    let (large_allocs, large_calls) = warm_run_allocations(&moon_moser(7), &config);
    assert!(
        large_calls > 2 * small_calls,
        "recursion did not grow: {small_calls} -> {large_calls}"
    );
    // Allow the small additive wiggle of the bigger plan's vectors, but no
    // proportionality to the call count.
    assert!(
        large_allocs < small_allocs + 60,
        "allocations grew with recursion: {small_allocs} -> {large_allocs} \
         (calls {small_calls} -> {large_calls})"
    );
}
