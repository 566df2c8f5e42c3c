//! Verifies the allocation-free steady state of the enumeration hot path,
//! that a root's local graph is sized by its candidates, and the allocation
//! bound of the graph loaders.
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
//! `COUNTING` flag [`measure`] has turned on, into that thread's own
//! counters, so tests running in parallel never add to each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hbbmc::{
    count_maximal_cliques, maximum_clique_bb_with_state, run_query, CountReporter,
    EnumerationState, MaxCliqueState, Query, QuerySpec, Solver, SolverConfig,
};
use mce_gen::{erdos_renyi, moon_moser, random_t_plex};
use mce_graph::io::MAX_DIMACS_VERTICES;
use mce_graph::io::{read_dimacs, read_edge_list, write_dimacs, write_edge_list};
use mce_graph::mcg::{
    read_mcg, write_mcg, FORMAT_VERSION, MAGIC, SECTION_ADJACENCY, SECTION_OFFSETS,
};
use mce_graph::{Graph, GraphError, GraphFormat};

struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations while `COUNTING` was on.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The bytes those allocations requested (a `realloc` counts its whole
    /// new size, so a doubling `Vec` counts about twice its final size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` if this thread is being measured.
/// `try_with` because the allocator may run while the thread's locals are
/// torn down.
fn note_allocation(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it only touches
// const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing Vec reallocates; that counts as allocator traffic too.
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` on this thread with counting on and returns its result with the
/// number of allocations it made and the bytes they requested.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

/// [`measure`], keeping only the allocation count.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocations, _) = measure(f);
    (out, allocations)
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
    // calls, every branch dense. ET is disabled (t = 0) so the claim under
    // test is the branching recursion itself; the emitter has its own test
    // below.
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
fn edge_levels_below_the_root_do_not_allocate() {
    // Table IV's depths 2 and 3, and EBBMC's edge levels all the way down,
    // branch inside the root's one local graph: a warm run allocates no more
    // than HBBMC+'s, whose edge levels end at the root.
    let g = moon_moser(7);
    let plain = |mut config: SolverConfig| {
        config.graph_reduction = false;
        config.early_termination_t = 0;
        config
    };
    let (root_only, root_calls) = warm_run_allocations(&g, &plain(SolverConfig::hbbmc_plus()));
    for (name, config) in [
        ("depth 2", SolverConfig::hbbmc_pp_depth(2)),
        ("depth 3", SolverConfig::hbbmc_pp_depth(3)),
        ("EBBMC", SolverConfig::ebbmc()),
    ] {
        let (allocs, calls) = warm_run_allocations(&g, &plain(config));
        assert!(
            calls > root_calls,
            "{name}: {calls} calls, {root_calls} at depth 1"
        );
        assert!(
            allocs <= root_only,
            "{name}: warm run allocated {allocs} times over {calls} recursive calls, \
             {root_only} at depth 1"
        );
    }
}

#[test]
fn early_terminated_branches_do_not_allocate() {
    // A random 3-plex: HBBMC++ ends thousands of its branches early, each
    // reading its complement's paths and cycles off the local rows. A warm
    // run must allocate no more than the same run with ET off (t = 0), whose
    // allocations are the root plan's alone.
    let g = random_t_plex(40, 3, 5);
    let with_et = SolverConfig::hbbmc_pp();
    let mut without_et = with_et;
    without_et.early_termination_t = 0;
    let solver = Solver::new(&g, with_et).expect("valid config");
    let stats = solver.run_with_state(&mut EnumerationState::new(), &mut CountReporter::new());
    assert!(
        stats.et_terminated > 1_000,
        "expected many early-terminated branches, got {}",
        stats.et_terminated
    );
    let (et_allocs, _) = warm_run_allocations(&g, &with_et);
    let (plain_allocs, _) = warm_run_allocations(&g, &without_et);
    assert!(
        et_allocs <= plain_allocs,
        "warm run allocated {et_allocs} times with ET over {} early-terminated \
         branches, {plain_allocs} without",
        stats.et_terminated
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
    bits.clear();
    a.and_not_collect(&row, &mut bits);

    let ((), allocs) = allocations_of(|| {
        for _ in 0..256 {
            a.intersect_into_count(&row, &mut out);
            let _ = a.intersection_len_words(&row);
            bits.clear();
            a.and_not_collect(&row, &mut bits);
        }
    });
    assert_eq!(allocs, 0, "fused kernels allocated in the steady state");
}

#[test]
fn steady_state_top_k_search_reuses_its_worker() {
    // The dedicated top-k search rides the same WorkerState scratch arena as
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

#[test]
fn k_clique_listing_allocations_do_not_grow_with_the_roots() {
    // Disjoint copies of K6: ten times the copies is ten times the edge
    // roots and the k-clique search nodes, but the listing reuses one local
    // graph, one candidate set per depth and one partial clique, so only the
    // plan's O(m) vectors (and their logarithmic growth) may add
    // allocations.
    let copies = |c: u32| {
        let edges = (0..c).flat_map(|i| {
            (0..6u32).flat_map(move |u| (u + 1..6).map(move |v| (6 * i + u, 6 * i + v)))
        });
        Graph::from_edges(6 * c as usize, edges).unwrap()
    };
    let allocations = |g: &Graph| {
        let mut sink = CountReporter::new();
        let (result, allocations) = allocations_of(|| {
            run_query(g, Query::new(QuerySpec::KClique { k: 4 }), &mut sink).unwrap()
        });
        assert!(!result.outcome.is_truncated());
        (allocations, sink.count)
    };
    let (small_graph, large_graph) = (copies(20), copies(200));
    let (small, small_cliques) = allocations(&small_graph);
    let (large, large_cliques) = allocations(&large_graph);
    assert_eq!((small_cliques, large_cliques), (20 * 15, 200 * 15));
    assert!(
        large < small + 60,
        "k-clique allocations grew with the roots: {small} for 300 edge roots, \
         {large} for 3000"
    );
}

// ----------------------------------------------------------------------
// Root local graphs are sized by their candidates
// ----------------------------------------------------------------------

/// Leaves of the hub inputs below: large enough that a local graph over a
/// hub's whole neighbourhood (two 2^14 × 2^14 bit matrices, 64 MiB) stands
/// out, small enough that the parent's layout still allocates it.
const LEAVES: u32 = 1 << 14;

/// The star: hub 0 joined to every leaf.
fn star() -> Graph {
    Graph::from_edges(LEAVES as usize + 1, (1..=LEAVES).map(|v| (0, v))).unwrap()
}

/// The book: the adjacent hubs 0 and 1 share every leaf.
fn book() -> Graph {
    let leaves = (2..LEAVES + 2).flat_map(|v| [(0, v), (1, v)]);
    Graph::from_edges(LEAVES as usize + 2, std::iter::once((0, 1)).chain(leaves)).unwrap()
}

/// A star whose hub 0 also lies in the K5 {0, …, 4}, whose other members
/// lie in the K6 {1, …, 6}. The degeneracy order peels the leaves and then
/// the hub, so a vertex root at the hub has C = {1, 2, 3, 4} and every leaf
/// in X.
fn hub_in_k6() -> Graph {
    let k5 = (1..5).map(|v| (0, v));
    let k6 = (1..7u32).flat_map(|u| (u + 1..7).map(move |v| (u, v)));
    let leaves = (7..LEAVES + 7).map(|v| (0, v));
    Graph::from_edges(LEAVES as usize + 7, k5.chain(k6).chain(leaves)).unwrap()
}

/// Requested bytes allowed per vertex and edge: the plan's O(n + m)
/// vectors (orderings, reduction, supports, the position map, growth
/// included). The largest measured run requests 125 bytes per vertex and
/// edge (HBBMC-dgn and the TopKBySize query on the hub in K6); before roots
/// were sized by their candidates, a hub root alone requested about 67 MB
/// here, 2000 bytes per vertex and edge.
const BYTES_PER_VERTEX_AND_EDGE: u64 = 160;

#[test]
fn hub_roots_allocate_linear_memory() {
    // Every preset whose roots follow a degeneracy, degree or edge order,
    // and the Count, TopKBySize and KClique queries, on three inputs whose
    // hubs put 2^14 leaves into some root's X. The natural-order presets
    // (RRef, BK, BK_Pivot) have no such bound on C and are left out.
    for (name, g) in [
        ("star", star()),
        ("book", book()),
        ("hub in K6", hub_in_k6()),
    ] {
        let bound = BYTES_PER_VERTEX_AND_EDGE * (g.n() + g.m()) as u64 + (1 << 20);
        let mut runs: Vec<(String, Box<dyn Fn()>)> = Vec::new();
        for (preset, config) in SolverConfig::named_presets() {
            if !matches!(preset, "RRef" | "BK" | "BK_Pivot") {
                let g = &g;
                runs.push((
                    preset.to_string(),
                    Box::new(move || {
                        count_maximal_cliques(g, &config);
                    }),
                ));
            }
        }
        for spec in [
            QuerySpec::Count,
            QuerySpec::TopKBySize { k: 10 },
            QuerySpec::KClique { k: 3 },
        ] {
            let g = &g;
            runs.push((
                format!("{spec:?}"),
                Box::new(move || {
                    run_query(g, Query::new(spec.clone()), &mut CountReporter::new()).unwrap();
                }),
            ));
        }
        for (label, run) in &runs {
            let ((), _, bytes) = measure(run);
            assert!(
                bytes <= bound,
                "{label} on the {name}: requested {bytes} bytes, bound {bound} \
                 (n {}, m {})",
                g.n(),
                g.m()
            );
        }
    }
}

// ----------------------------------------------------------------------
// Loader allocation bound
// ----------------------------------------------------------------------

/// Bytes a loader may request per input byte it was handed. The text
/// loaders request about 8.5 on the samples below (the label table, interned
/// ids, edge buffers and the CSR arrays, growth included); `.mcg` about 1.1.
const BYTES_PER_INPUT_BYTE: u64 = 32;
/// Bytes a loader may request per vertex that a header declares and the
/// loader accepts: `Graph::from_edges` requests 8 of them (one offset per
/// vertex). This is the figure `MAX_DIMACS_VERTICES` caps.
const BYTES_PER_DECLARED_VERTEX: u64 = 32;
/// Fixed slack: reader buffers, and the first 64 Ki entries the `.mcg`
/// loader reserves for each section before it streams the body.
const LOADER_SLACK: u64 = 1 << 20;

/// Runs `load` on `input` under the counting allocator and asserts the
/// loader invariant: the bytes requested are at most
/// `BYTES_PER_INPUT_BYTE · len + BYTES_PER_DECLARED_VERTEX · (n + 1) +
/// LOADER_SLACK`, where `n` is a header-declared vertex count the loader
/// accepts (pass 0 when there is none, or the loader must reject it).
fn load_within_bound(
    label: &str,
    input: &[u8],
    declared_n: u64,
    load: impl FnOnce(&[u8]) -> Result<Graph, GraphError>,
) -> Result<Graph, GraphError> {
    let (result, _, bytes) = measure(|| load(input));
    let bound = BYTES_PER_INPUT_BYTE * input.len() as u64
        + BYTES_PER_DECLARED_VERTEX * (declared_n + 1)
        + LOADER_SLACK;
    assert!(
        bytes <= bound,
        "{label}: requested {bytes} bytes for {} input bytes (bound {bound})",
        input.len()
    );
    result
}

/// A forged `.mcg` file: a valid magic and header declaring `n` and `m`,
/// a section table whose lengths match them, and a 256-byte body.
fn forged_mcg(n: u64, m: u64, adjacency_first: bool) -> Vec<u8> {
    let offsets_len = n.wrapping_add(1).wrapping_mul(8);
    let adjacency_len = m.wrapping_mul(8);
    let start = 8 + 32 + 2 * 32u64;
    let mut sections = [
        (SECTION_OFFSETS, offsets_len),
        (SECTION_ADJACENCY, adjacency_len),
    ];
    if adjacency_first {
        sections.swap(0, 1);
    }
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes()); // flags
    bytes.extend_from_slice(&n.to_le_bytes());
    bytes.extend_from_slice(&m.to_le_bytes());
    bytes.extend_from_slice(&2u32.to_le_bytes()); // section count
    bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
    let mut offset = start;
    for (id, len) in sections {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&offset.to_le_bytes());
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum
        offset = offset.wrapping_add(len);
    }
    bytes.extend((0..256u32).map(|i| i as u8));
    bytes
}

#[test]
fn dimacs_loader_allocation_is_bounded_by_input_and_capped_n() {
    // A header may declare isolated vertices, so the loader may spend per
    // declared vertex, but only up to MAX_DIMACS_VERTICES.
    let n = 1u64 << 20;
    let header = format!("p edge {n} 0\n");
    let g = load_within_bound("dimacs 2^20", header.as_bytes(), n, |b| read_dimacs(b))
        .expect("a header within the cap loads");
    assert_eq!(g.n() as u64, n);

    // Above the cap, nothing per vertex may be spent before the typed error.
    for declared in [MAX_DIMACS_VERTICES + 1, 1 << 40, u64::MAX] {
        let header = format!("p edge {declared} 1\ne 1 2\n");
        let err = load_within_bound("dimacs above cap", header.as_bytes(), 0, |b| read_dimacs(b))
            .expect_err("a header above the cap is rejected");
        assert!(
            matches!(err, GraphError::TooManyVertices { n, limit }
                if n == declared && limit == MAX_DIMACS_VERTICES),
            "{declared}: {err}"
        );
    }

    // Edge ids near u64::MAX are a typed error, not an allocation.
    let text = format!("p edge 10 1\ne {} 1\n", u64::MAX);
    let err = load_within_bound("dimacs huge id", text.as_bytes(), 10, |b| read_dimacs(b))
        .expect_err("an id above n is rejected");
    assert!(matches!(err, GraphError::VertexOutOfRange { .. }), "{err}");

    // The bound holds for the bytes of an actual graph too.
    let g = erdos_renyi(2_000, 8_000, 3);
    let mut text = Vec::new();
    write_dimacs(&g, &mut text).unwrap();
    let loaded = load_within_bound("dimacs sample", &text, g.n() as u64, |b| read_dimacs(b))
        .expect("round trip");
    assert_eq!(loaded, g);
}

#[test]
fn mcg_loader_allocation_is_bounded_by_bytes_read() {
    // Headers may claim up to u32::MAX vertices and 2^61 edges over a body
    // of a few hundred bytes: each is a typed error, and the loader's
    // allocation follows the bytes it actually read, not the claim. The
    // declared n never earns a per-vertex allowance here.
    let u32_max = u32::MAX as u64;
    for (n, m, adjacency_first) in [
        (u32_max, 0, false),
        (u32_max, (1 << 61) - 1, false),
        (u32_max, (1 << 61) - 1, true),
        (1 << 20, 1 << 40, true),
        (0, 1 << 61, false),
        (u32_max + 1, 1, false),
        (u64::MAX, u64::MAX, false),
    ] {
        let bytes = forged_mcg(n, m, adjacency_first);
        let label = format!("mcg n={n} m={m} adjacency_first={adjacency_first}");
        let err = load_within_bound(&label, &bytes, 0, |b| read_mcg(b))
            .expect_err("a forged header never loads");
        assert!(
            matches!(
                err,
                GraphError::InvalidData { .. }
                    | GraphError::TooManyVertices { .. }
                    | GraphError::TooManyEdges { .. }
            ),
            "{label}: {err}"
        );
    }

    let g = erdos_renyi(2_000, 8_000, 3);
    let mut bytes = Vec::new();
    write_mcg(&g, &mut bytes).unwrap();
    let loaded = load_within_bound("mcg sample", &bytes, 0, |b| read_mcg(b)).expect("round trip");
    assert_eq!(loaded, g);
}

#[test]
fn edge_list_loader_allocation_is_bounded_by_input() {
    // Edge lists declare nothing: ids are interned, so even ids near
    // u64::MAX cost only what the lines that name them cost.
    let mut text = String::new();
    for i in 0..500u64 {
        let u = u64::MAX - 2 * i;
        text.push_str(&format!(
            "{u} {}\n{} {}\n",
            u - 1,
            u - 1,
            u64::MAX - 1_000 - i
        ));
    }
    let g = load_within_bound("edge list huge ids", text.as_bytes(), 0, |b| {
        read_edge_list(b)
    })
    .expect("huge ids load");
    assert_eq!(g.m(), 1_000);

    let err = load_within_bound(
        "edge list overflowing id",
        b"18446744073709551616 1\n",
        0,
        |b| read_edge_list(b),
    )
    .expect_err("an id above u64::MAX is a parse error");
    assert!(matches!(err, GraphError::Parse { .. }), "{err}");

    let g = erdos_renyi(2_000, 8_000, 3);
    let mut text = Vec::new();
    write_edge_list(&g, &mut text).unwrap();
    let loaded =
        load_within_bound("edge list sample", &text, 0, |b| read_edge_list(b)).expect("load");
    assert_eq!(loaded.m(), g.m());
}

#[test]
fn sniffing_a_large_input_allocates_nothing() {
    // 1 MiB of comment lines before the deciding line: the sniffer reads
    // them all, and it must not copy them, not even where they are not
    // UTF-8.
    let mut comments = Vec::with_capacity(1 << 20);
    while comments.len() < (1 << 20) - 64 {
        comments.extend_from_slice(b"% a comment line, \xff not UTF-8\r\n");
    }
    for (tail, format) in [
        (&b"p edge 2 1\ne 1 2\n"[..], GraphFormat::Dimacs),
        (b"0 1\n", GraphFormat::EdgeList),
        (b"", GraphFormat::EdgeList),
    ] {
        let mut input = comments.clone();
        input.extend_from_slice(tail);
        let (sniffed, allocations, bytes) = measure(|| GraphFormat::sniff_bytes(&input));
        assert_eq!(sniffed, format);
        assert_eq!((allocations, bytes), (0, 0), "{format:?}");
    }
}
