//! Per-layer probes for the traced benchmark run.
//!
//! ```text
//! perfbench-layers EDGE_LIST GRAPH.mcg ANCHORS SCRATCH_DIR REPS
//! ```
//!
//! Calls each layer's public entry points in process, in the order
//! `mce enumerate` uses them — load, order, solve with a sink, the 2-thread
//! engine — then the query engine with the serve workload's specs. Every
//! call is a span (name, start, end, parent, request id) kept in memory and
//! written to `SCRATCH_DIR/spans.jsonl` at the end; a table of each span
//! name's total and self time (its span minus the time its child spans
//! cover) goes to stderr. Each repetition runs once traced and once with
//! span recording off; the difference of the medians is the tracing
//! overhead. Prints one JSON object of metric name → value on stdout.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hbbmc::{
    par_count_maximal_cliques, par_enumerate_ordered_budgeted, run_query, Budget, CliqueLineFormat,
    CliqueReporter, CountReporter, EnumerationState, EnumerationStats, Query, QuerySpec, Solver,
    SolverConfig, VertexId, WriterReporter,
};
use mce_graph::ordering::{edge_ordering, vertex_ordering};
use mce_graph::{BitSet, EdgeOrderingKind, Graph, VertexOrderingKind};

/// Threads of the parallel-engine probes, as in `mce enumerate --threads 2`.
const THREADS: usize = 2;
/// Anchored queries timed per repetition, taken from the front of the pool.
const ANCHORED_PER_REP: usize = 256;
/// `k` of the top-k query, as in the serve workload's mix.
const TOP_K: usize = 10;
/// Calls per bitset-kernel timing.
const KERNEL_CALLS: u32 = 4_000_000;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder; with `on == false` it records nothing, which is
/// the untraced twin of each repetition.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on,
        }
    }

    fn enter(&mut self, name: &'static str, request: u64) {
        if self.on {
            let now = self.origin.elapsed();
            self.spans.push(Span {
                name,
                start: now,
                end: now,
                parent: self.open.last().copied(),
                request,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn exit(&mut self) {
        if self.on {
            let i = self.open.pop().expect("exit without a matching enter");
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Records a child of the open span that ends now and lasts `total`: the
    /// aggregate of many short calls that are too frequent to span singly.
    fn aggregate(&mut self, name: &'static str, request: u64, total: Duration) {
        if self.on {
            let end = self.origin.elapsed();
            self.spans.push(Span {
                name,
                start: end.saturating_sub(total),
                end,
                parent: self.open.last().copied(),
                request,
            });
        }
    }

    /// Runs `f` inside a span and returns its result and wall seconds.
    fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name, request);
        let start = Instant::now();
        let out = black_box(f());
        let secs = start.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }
}

/// Sums the time spent inside the inner reporter's `report`.
struct TimedReporter<R> {
    inner: R,
    busy: Duration,
}

impl<R: CliqueReporter> CliqueReporter for TimedReporter<R> {
    fn report(&mut self, clique: &[VertexId]) {
        let start = Instant::now();
        self.inner.report(clique);
        self.busy += start.elapsed();
    }
}

struct CountingWriter<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Samples per metric across repetitions; reported as medians.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        let mut v = self.0[name].clone();
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }
}

/// Counters that must repeat exactly for a given input.
#[derive(Clone, Debug, PartialEq)]
struct Counters {
    solve: EnumerationStats,
    anchored_roots_skipped: u64,
    maximum: EnumerationStats,
    text_bytes: u64,
}

fn without_times(mut s: EnumerationStats) -> EnumerationStats {
    s.elapsed = Duration::ZERO;
    s.ordering_time = Duration::ZERO;
    s.busy_time = Duration::ZERO;
    s
}

struct Inputs {
    edge_list: PathBuf,
    mcg: PathBuf,
    anchors: Vec<Vec<VertexId>>,
    scratch: PathBuf,
}

/// One twin's recorder and the solver states it keeps warm across
/// repetitions.
struct Twin {
    tracer: Tracer,
    hbbmc_state: EnumerationState,
    rdegen_state: EnumerationState,
    samples: Samples,
}

/// One repetition of every layer probe. Returns the counters and the
/// repetition's total wall time.
fn repetition(twin: &mut Twin, rep: u64, inputs: &Inputs) -> Result<(Counters, f64), String> {
    let Twin {
        tracer: tr,
        hbbmc_state,
        rdegen_state,
        samples,
    } = twin;
    let hbbmc = SolverConfig::hbbmc_pp();
    let start = Instant::now();
    tr.enter("repetition", rep);

    tr.enter("load", rep);
    let (parsed, secs) = tr.time("io.read_edge_list", rep, || {
        mce_graph::io::read_edge_list_file(&inputs.edge_list)
    });
    parsed.map_err(|e| format!("reading {}: {e}", inputs.edge_list.display()))?;
    samples.add("io.read_edge_list_s", secs);
    let (g, secs) = tr.time("mcg.read", rep, || {
        mce_graph::mcg::read_mcg_file(&inputs.mcg)
    });
    let g: Graph = g.map_err(|e| format!("reading {}: {e}", inputs.mcg.display()))?;
    samples.add("mcg.read_s", secs);
    let copy = inputs.scratch.join("layers-copy.mcg");
    let (written, secs) = tr.time("mcg.write", rep, || {
        mce_graph::mcg::write_mcg_file(&g, &copy)
    });
    written.map_err(|e| format!("writing {}: {e}", copy.display()))?;
    samples.add("mcg.write_s", secs);
    tr.exit();

    tr.enter("order", rep);
    let (_, secs) = tr.time("triangles.edge_supports", rep, || {
        mce_graph::edge_supports(&g)
    });
    samples.add("triangles.edge_supports_s", secs);
    let (_, secs) = tr.time("ordering.truss", rep, || {
        edge_ordering(&g, EdgeOrderingKind::Truss)
    });
    samples.add("ordering.truss_s", secs);
    let (_, secs) = tr.time("ordering.degeneracy", rep, || {
        vertex_ordering(&g, VertexOrderingKind::Degeneracy)
    });
    samples.add("ordering.degeneracy_s", secs);
    tr.exit();

    tr.enter("solve", rep);
    let solver = Solver::new(&g, hbbmc).map_err(|e| e.to_string())?;
    if rep == 0 {
        // Leaves the state's buffers sized for this graph.
        solver.run_with_state(hbbmc_state, &mut CountReporter::new());
    }
    let (solve, secs) = tr.time("solver.solve", rep, || {
        solver.run_with_state(hbbmc_state, &mut CountReporter::new())
    });
    samples.add("solver.solve_s", secs);
    samples.add("solver.ordering_s", solve.ordering_time.as_secs_f64());
    samples.add(
        "solver.after_ordering_s",
        secs - solve.ordering_time.as_secs_f64(),
    );
    let rdegen = Solver::new(&g, SolverConfig::r_degen()).map_err(|e| e.to_string())?;
    if rep == 0 {
        rdegen.run_with_state(rdegen_state, &mut CountReporter::new());
    }
    let (_, secs) = tr.time("solver.rdegen_solve", rep, || {
        rdegen.run_with_state(rdegen_state, &mut CountReporter::new())
    });
    samples.add("solver.rdegen_solve_s", secs);

    // The CLI's one-thread text path: ordered engine into a buffered file.
    let text_path = inputs.scratch.join("layers-text.txt");
    let file = File::create(&text_path).map_err(|e| format!("{}: {e}", text_path.display()))?;
    let sink = CountingWriter {
        inner: BufWriter::new(file),
        bytes: 0,
    };
    let mut timed = TimedReporter {
        inner: WriterReporter::new(sink, CliqueLineFormat::Text),
        busy: Duration::ZERO,
    };
    tr.enter("solver.text_run", rep);
    let run = par_enumerate_ordered_budgeted(&g, &hbbmc, 1, &Budget::unlimited(), None, &mut timed);
    tr.aggregate("report.text", rep, timed.busy);
    tr.exit();
    let (text_stats, _) = run.map_err(|e| e.to_string())?;
    let sink = timed
        .inner
        .finish()
        .map_err(|e| format!("{}: {e}", text_path.display()))?;
    samples.add("report.text_s", timed.busy.as_secs_f64());
    samples.add("report.bytes", sink.bytes as f64);
    samples.add(
        "report.ns_per_clique",
        timed.busy.as_secs_f64() * 1e9 / text_stats.maximal_cliques.max(1) as f64,
    );
    tr.exit();

    tr.enter("parallel", rep);
    let (ordered, ordered_secs) = tr.time("parallel.ordered_t2", rep, || {
        par_enumerate_ordered_budgeted(
            &g,
            &hbbmc,
            THREADS,
            &Budget::unlimited(),
            None,
            &mut CountReporter::new(),
        )
    });
    let (ordered, _) = ordered.map_err(|e| e.to_string())?;
    let busy = ordered.busy_time.as_secs_f64();
    samples.add("parallel.ordered_t2_s", ordered_secs);
    samples.add("parallel.busy_s", busy);
    samples.add("parallel.wait_s", THREADS as f64 * ordered_secs - busy);
    let (_, secs) = tr.time("parallel.unordered_t2", rep, || {
        par_count_maximal_cliques(&g, &hbbmc, THREADS)
    });
    samples.add("parallel.unordered_t2_s", secs);
    samples.add("parallel.sequencer_s", ordered_secs - secs);
    tr.exit();

    tr.enter("query", rep);
    let mut skipped = 0u64;
    for (i, anchor) in inputs.anchors.iter().take(ANCHORED_PER_REP).enumerate() {
        let query = Query::new(QuerySpec::Anchored {
            vertices: anchor.clone(),
        });
        let (result, secs) = tr.time("query.anchored", i as u64, || {
            run_query(&g, query, &mut CountReporter::new())
        });
        skipped += result
            .map_err(|e| e.to_string())?
            .stats
            .anchored_roots_skipped;
        samples.add("query.anchored_us", secs * 1e6);
    }
    let (_, secs) = tr.time("query.topk", rep, || {
        run_query(
            &g,
            Query::new(QuerySpec::TopKBySize { k: TOP_K }),
            &mut CountReporter::new(),
        )
    });
    samples.add("query.topk_ms", secs * 1e3);
    let (maximum, secs) = tr.time("maxclique.bb", rep, || {
        run_query(
            &g,
            Query::new(QuerySpec::MaximumClique),
            &mut CountReporter::new(),
        )
    });
    let maximum = maximum.map_err(|e| e.to_string())?;
    samples.add("maxclique.bb_ms", secs * 1e3);
    tr.exit();

    tr.exit();
    let counters = Counters {
        solve: without_times(solve),
        anchored_roots_skipped: skipped,
        maximum: without_times(maximum.stats),
        text_bytes: sink.bytes,
    };
    Ok((counters, start.elapsed().as_secs_f64()))
}

/// Nanoseconds per `BitSet::intersect_into_count` call on `words`-word rows.
fn kernel_ns(words: usize) -> f64 {
    let bits = words * 64;
    let mut a = BitSet::with_capacity(bits);
    for v in (0..bits).step_by(3) {
        a.insert(v);
    }
    let row: Vec<u64> = (0..words as u64)
        .map(|i| 0x5555_5555_5555_5555 ^ i)
        .collect();
    let mut out = BitSet::with_capacity(bits);
    let mut total = 0usize;
    let start = Instant::now();
    for _ in 0..KERNEL_CALLS {
        total += black_box(&a).intersect_into_count(black_box(&row), &mut out);
    }
    black_box(total);
    start.elapsed().as_secs_f64() * 1e9 / f64::from(KERNEL_CALLS)
}

fn read_anchors(path: &Path) -> Result<Vec<Vec<VertexId>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|v| v.parse().map_err(|_| format!("bad anchor line '{line}'")))
                .collect()
        })
        .collect()
}

/// Writes every span as one JSON line and prints each name's count, total
/// and self time to stderr.
fn write_spans(tr: &Tracer, path: &Path) -> Result<(), String> {
    let mut child_time = vec![Duration::ZERO; tr.spans.len()];
    for span in &tr.spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.end - span.start;
        }
    }
    let mut out = BufWriter::new(File::create(path).map_err(|e| e.to_string())?);
    let mut table: BTreeMap<&str, (u64, Duration, Duration)> = BTreeMap::new();
    for (i, span) in tr.spans.iter().enumerate() {
        let total = span.end - span.start;
        let own = total.saturating_sub(child_time[i]);
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"request\":{},\"self_ns\":{}}}",
            span.name,
            span.start.as_nanos(),
            span.end.as_nanos(),
            span.request,
            own.as_nanos(),
        )
        .map_err(|e| e.to_string())?;
        let entry = table.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += own;
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "{:<28} {:>7} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (count, total, own)) in table {
        eprintln!(
            "{name:<28} {count:>7} {:>12.6} {:>12.6}",
            total.as_secs_f64(),
            own.as_secs_f64()
        );
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let [edge_list, mcg, anchors, scratch, reps] = args else {
        return Err("usage: perfbench-layers EDGE_LIST GRAPH.mcg ANCHORS SCRATCH_DIR REPS".into());
    };
    let reps: u64 = reps.parse().map_err(|_| format!("bad REPS '{reps}'"))?;
    let inputs = Inputs {
        edge_list: PathBuf::from(edge_list),
        mcg: PathBuf::from(mcg),
        anchors: read_anchors(Path::new(anchors))?,
        scratch: PathBuf::from(scratch),
    };
    let mut twins = [true, false].map(|on| Twin {
        tracer: Tracer::new(on),
        hbbmc_state: EnumerationState::new(),
        rdegen_state: EnumerationState::new(),
        samples: Samples::default(),
    });
    let mut totals = Samples::default();
    let mut counters: Option<Counters> = None;
    let mut repeat_failures = 0u64;
    for rep in 0..reps.max(1) {
        // Alternate which twin runs first so drift favours neither.
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            let (seen, secs) = repetition(&mut twins[i], rep, &inputs)?;
            totals.add(if i == 0 { "traced" } else { "untraced" }, secs);
            match &counters {
                None => counters = Some(seen),
                Some(first) if *first != seen => repeat_failures += 1,
                Some(_) => {}
            }
        }
    }
    let c = counters.expect("at least one repetition ran");
    let mut kernels = Samples::default();
    for _ in 0..reps.max(1) {
        kernels.add("w1", kernel_ns(1));
        kernels.add("w3", kernel_ns(3));
    }
    let [traced, _] = &twins;
    write_spans(&traced.tracer, &inputs.scratch.join("spans.jsonl"))?;

    let samples = &traced.samples;
    let mut metrics: Vec<(&str, f64)> = [
        "io.read_edge_list_s",
        "mcg.read_s",
        "mcg.write_s",
        "triangles.edge_supports_s",
        "ordering.truss_s",
        "ordering.degeneracy_s",
        "solver.solve_s",
        "solver.ordering_s",
        "solver.after_ordering_s",
        "solver.rdegen_solve_s",
        "report.text_s",
        "report.bytes",
        "report.ns_per_clique",
        "parallel.ordered_t2_s",
        "parallel.unordered_t2_s",
        "parallel.sequencer_s",
        "parallel.busy_s",
        "parallel.wait_s",
        "query.anchored_us",
        "query.topk_ms",
        "maxclique.bb_ms",
    ]
    .into_iter()
    .map(|name| (name, samples.median(name)))
    .collect();
    let s = &c.solve;
    let calls = s.recursive_calls as f64;
    let anchored = inputs.anchors.len().clamp(1, ANCHORED_PER_REP) as f64;
    metrics.extend([
        (
            "parallel.speedup",
            samples.median("solver.solve_s") / samples.median("parallel.ordered_t2_s"),
        ),
        ("solver.roots", s.initial_branches as f64),
        ("solver.calls", calls),
        (
            "solver.calls_per_root",
            calls / s.initial_branches.max(1) as f64,
        ),
        (
            "solver.cliques_per_call",
            s.maximal_cliques as f64 / calls.max(1.0),
        ),
        ("solver.et_eligible", s.et_eligible as f64),
        ("solver.et_terminated", s.et_terminated as f64),
        ("solver.et_ratio", s.et_ratio()),
        ("solver.gr_removed_vertices", s.gr_removed_vertices as f64),
        (
            "query.anchored_roots_skipped",
            c.anchored_roots_skipped as f64 / anchored,
        ),
        (
            "maxclique.pruned_by_color",
            c.maximum.branches_pruned_by_color as f64,
        ),
        (
            "maxclique.pruned_by_core",
            c.maximum.branches_pruned_by_core as f64,
        ),
        ("maxclique.lb_updates", c.maximum.lb_updates as f64),
        ("bitset.intersect_into_count_ns.w1", kernels.median("w1")),
        ("bitset.intersect_into_count_ns.w3", kernels.median("w3")),
        (
            "trace.overhead_s",
            totals.median("traced") - totals.median("untraced"),
        ),
        ("trace.untraced_s", totals.median("untraced")),
    ]);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    println!(
        "{{\"metrics\":{{{}}},\"cliques\":{},\"repeat_failures\":{repeat_failures}}}",
        body.join(","),
        s.maximal_cliques
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-layers: {message}");
            ExitCode::FAILURE
        }
    }
}
