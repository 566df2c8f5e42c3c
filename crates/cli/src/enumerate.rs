//! `mce enumerate` — the end-to-end enumeration driver.

use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use hbbmc::{
    par_enumerate_ordered_budgeted, Budget, CliqueLineFormat, CountReporter, EnumerationStats,
    MaximumCliqueReporter, MinSizeFilter, Outcome, ProgressCounters, SizeHistogramReporter,
    SolverConfig, WriterReporter,
};
use mce_graph::Graph;

use crate::args::{check_scheduler, ParsedArgs};
use crate::error::CliError;
use crate::io::{load_graph, open_sink, FormatArg};

/// Per-command help text.
pub const HELP: &str = "usage: mce enumerate [GRAPH] [options]

Enumerates every maximal clique of GRAPH (a file path, or stdin for '-' /
no argument). Output is streamed — buffering is bounded by a fixed
out-of-order cap, never the full result set — and is byte-identical for a
given graph regardless of --threads (enforced in CI by the golden-corpus
determinism gate).

options:
  --format edge-list|dimacs|mcg|auto  input format (default: auto)
  --preset NAME                    solver preset, e.g. HBBMC++ (default), RDegen
  --threads N                      worker threads, 1..=1024 (default: 1)
  --scheduler dynamic|static|splitting   accepted, no effect: every parallel
                                   run shares root chunks and donates
                                   sub-branches to idle workers
  --min-size K                     only report cliques with >= K vertices
  --limit N                        stop after the first N cliques of the
                                   deterministic stream (exit 0; a truncated
                                   outcome is noted on --stats). Applied
                                   before --min-size filtering.
  --max-steps N                    abort after N branch steps summed across
                                   all workers; the emitted stream is an
                                   exact prefix of the unbudgeted one
  --deadline-ms N                  abort after N milliseconds of wall-clock
                                   time; like --max-steps, the emitted
                                   stream stays an exact prefix
  --output count|text|ndjson|histogram|max   output mode (default: count)
  --out FILE                       write to FILE instead of stdout
  --stats                          print run statistics (and the outcome:
                                   complete or truncated) to stderr
  --progress                       print a periodic one-line rate report to
                                   stderr (roots done, cliques found, cliques/s)";

const VALUE_OPTS: &[&str] = &[
    "--format",
    "--preset",
    "--threads",
    "--scheduler",
    "--min-size",
    "--limit",
    "--max-steps",
    "--deadline-ms",
    "--output",
    "--out",
];
const BOOL_FLAGS: &[&str] = &["--stats", "--progress"];

/// What `mce enumerate` writes to its sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutputMode {
    Count,
    Text,
    Ndjson,
    Histogram,
    Max,
}

fn parse_output_mode(raw: Option<&str>) -> Result<OutputMode, CliError> {
    match raw {
        None | Some("count") => Ok(OutputMode::Count),
        Some("text") => Ok(OutputMode::Text),
        Some("ndjson") => Ok(OutputMode::Ndjson),
        Some("histogram") => Ok(OutputMode::Histogram),
        Some("max") => Ok(OutputMode::Max),
        Some(other) => Err(CliError::usage(format!(
            "unknown output mode '{other}' (expected count, text, ndjson, histogram or max)"
        ))),
    }
}

/// Interval between `--progress` reports.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);

/// Runs `emit` with a monitor thread that prints a one-line rate report to
/// stderr every [`PROGRESS_INTERVAL`] until the enumeration finishes. The
/// sink output is untouched — the counters are observational only.
fn emit_with_progress(
    graph: &Graph,
    config: &SolverConfig,
    threads: usize,
    budget: &Budget,
    min_size: usize,
    mode: OutputMode,
    sink: &mut (dyn Write + Send),
) -> Result<(EnumerationStats, Outcome), CliError> {
    /// Signals the monitor to exit when dropped — including when `emit`
    /// panics, so the scope's implicit join cannot hang on a monitor that
    /// would otherwise wait forever.
    struct SignalDone<'a> {
        done: &'a Mutex<bool>,
        finished: &'a Condvar,
    }
    impl Drop for SignalDone<'_> {
        fn drop(&mut self) {
            let mut flag = self
                .done
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            *flag = true;
            self.finished.notify_all();
        }
    }

    let progress = ProgressCounters::new();
    let done = Mutex::new(false);
    let finished = Condvar::new();
    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let start = Instant::now();
            let mut flag = done.lock().expect("progress flag poisoned");
            loop {
                let (next, _) = finished
                    .wait_timeout(flag, PROGRESS_INTERVAL)
                    .expect("progress flag poisoned");
                flag = next;
                if *flag {
                    return;
                }
                let roots_done = progress.roots_done.load(Ordering::Relaxed);
                let total = progress.total_roots.load(Ordering::Relaxed);
                let cliques = progress.cliques_found.load(Ordering::Relaxed);
                let splits = progress.splits.load(Ordering::Relaxed);
                let rate = cliques as f64 / start.elapsed().as_secs_f64().max(1e-9);
                eprintln!(
                    "progress: roots {roots_done}/{total}, cliques {cliques} ({rate:.0}/s), \
                     splits {splits}"
                );
            }
        });
        let result = {
            let _signal = SignalDone {
                done: &done,
                finished: &finished,
            };
            emit(
                graph,
                config,
                threads,
                budget,
                min_size,
                mode,
                Some(&progress),
                sink,
            )
        };
        monitor.join().expect("progress monitor panicked");
        result
    })
}

/// Builds the session [`Budget`] from `--limit` / `--max-steps` /
/// `--deadline-ms`. Shared with `mce query`, which accepts the same flags.
pub(crate) fn parse_budget(p: &ParsedArgs) -> Result<Budget, CliError> {
    Ok(Budget {
        max_cliques: p.opt_u64("--limit")?,
        max_steps: p.opt_u64("--max-steps")?,
        cancel: None,
        deadline: p.opt_u64("--deadline-ms")?.map(Duration::from_millis),
    })
}

/// Prints the run statistics (and outcome) to stderr for `--stats`.
pub(crate) fn print_stats(stats: &EnumerationStats, outcome: Outcome) {
    eprintln!("{stats}");
    eprintln!("outcome: {outcome}");
}

/// Writes the three-line count summary shared by `enumerate --output count`
/// and `query --output count` — one definition so the formats cannot drift.
pub(crate) fn write_count_summary(
    sink: &mut (dyn Write + Send),
    counter: &CountReporter,
) -> Result<(), CliError> {
    writeln!(sink, "cliques {}", counter.count)?;
    writeln!(sink, "max_size {}", counter.max_size)?;
    writeln!(sink, "avg_size {:.4}", counter.average_size())?;
    Ok(())
}

/// Runs the subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, VALUE_OPTS, BOOL_FLAGS)?;
    p.reject_extra_positionals(1)?;
    let mode = parse_output_mode(p.value("--output"))?;
    let config = SolverConfig::preset_by_name(p.value("--preset").unwrap_or("HBBMC++"))?;
    if let Some(name) = p.value("--scheduler") {
        check_scheduler(name).map_err(CliError::usage)?;
    }
    let threads = p.usize_value("--threads", 1, 1, 1024)?;
    let min_size = p.usize_value("--min-size", 1, 1, usize::MAX)?;
    let budget = parse_budget(&p)?;
    let format = FormatArg::parse(p.value("--format"))?;
    let graph = load_graph(p.positional(0), format)?;
    let mut sink = open_sink(p.value("--out"))?;

    let (stats, outcome) = if p.flag("--progress") {
        emit_with_progress(&graph, &config, threads, &budget, min_size, mode, &mut sink)?
    } else {
        emit(
            &graph, &config, threads, &budget, min_size, mode, None, &mut sink,
        )?
    };
    sink.flush()?;
    if p.flag("--stats") {
        print_stats(&stats, outcome);
    }
    Ok(())
}

/// [`par_enumerate_ordered_budgeted`], optionally observed by progress
/// counters.
fn enumerate_ordered<R: hbbmc::CliqueReporter + Send>(
    graph: &Graph,
    config: &SolverConfig,
    threads: usize,
    budget: &Budget,
    reporter: &mut R,
    progress: Option<&ProgressCounters>,
) -> Result<(EnumerationStats, Outcome), CliError> {
    Ok(par_enumerate_ordered_budgeted(
        graph, config, threads, budget, progress, reporter,
    )?)
}

/// Enumerates `graph` into `sink` under the chosen output mode.
#[allow(clippy::too_many_arguments)]
fn emit(
    graph: &Graph,
    config: &SolverConfig,
    threads: usize,
    budget: &Budget,
    min_size: usize,
    mode: OutputMode,
    progress: Option<&ProgressCounters>,
    sink: &mut (dyn Write + Send),
) -> Result<(EnumerationStats, Outcome), CliError> {
    match mode {
        OutputMode::Count => {
            let mut reporter = MinSizeFilter::new(CountReporter::new(), min_size);
            let run = enumerate_ordered(graph, config, threads, budget, &mut reporter, progress)?;
            write_count_summary(sink, &reporter.into_inner())?;
            Ok(run)
        }
        OutputMode::Text | OutputMode::Ndjson => {
            let line_format = if mode == OutputMode::Text {
                CliqueLineFormat::Text
            } else {
                CliqueLineFormat::Ndjson
            };
            let writer = WriterReporter::new(&mut *sink, line_format);
            let mut reporter = MinSizeFilter::new(writer, min_size);
            let run = enumerate_ordered(graph, config, threads, budget, &mut reporter, progress)?;
            reporter
                .into_inner()
                .finish()
                .map_err(|e| CliError::runtime(format!("writing output: {e}")))?;
            Ok(run)
        }
        OutputMode::Histogram => {
            let mut reporter = MinSizeFilter::new(SizeHistogramReporter::new(), min_size);
            let run = enumerate_ordered(graph, config, threads, budget, &mut reporter, progress)?;
            let histogram = reporter.into_inner();
            for (size, &count) in histogram.histogram.iter().enumerate() {
                if count > 0 {
                    writeln!(sink, "{size} {count}")?;
                }
            }
            Ok(run)
        }
        OutputMode::Max => {
            let mut reporter = MinSizeFilter::new(MaximumCliqueReporter::new(), min_size);
            let run = enumerate_ordered(graph, config, threads, budget, &mut reporter, progress)?;
            let best = reporter.into_inner().best;
            let line: Vec<String> = best.iter().map(|v| v.to_string()).collect();
            writeln!(sink, "{}", line.join(" "))?;
            Ok(run)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_with_config(
        g: &Graph,
        config: &SolverConfig,
        threads: usize,
        min_size: usize,
        mode: OutputMode,
    ) -> String {
        let mut sink: Vec<u8> = Vec::new();
        // Vec<u8> is Write + Send.
        let mut boxed: Box<dyn Write + Send> = Box::new(&mut sink);
        emit(
            g,
            config,
            threads,
            &Budget::unlimited(),
            min_size,
            mode,
            None,
            &mut *boxed,
        )
        .unwrap();
        drop(boxed);
        String::from_utf8(sink).unwrap()
    }

    fn emit_to_string(g: &Graph, threads: usize, min_size: usize, mode: OutputMode) -> String {
        emit_with_config(g, &SolverConfig::hbbmc_pp(), threads, min_size, mode)
    }

    fn diamond() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn count_mode_reports_totals() {
        let out = emit_to_string(&diamond(), 1, 1, OutputMode::Count);
        assert_eq!(out, "cliques 2\nmax_size 3\navg_size 3.0000\n");
    }

    #[test]
    fn text_mode_lists_cliques_sorted() {
        let out = emit_to_string(&diamond(), 1, 1, OutputMode::Text);
        let mut lines: Vec<&str> = out.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec!["0 1 2", "0 2 3"]);
    }

    #[test]
    fn ndjson_mode_emits_one_object_per_line() {
        let out = emit_to_string(&diamond(), 2, 1, OutputMode::Ndjson);
        assert_eq!(out.lines().count(), 2);
        for line in out.lines() {
            assert!(line.starts_with("{\"size\":3,\"clique\":["), "{line}");
        }
    }

    #[test]
    fn histogram_mode_buckets_by_size() {
        let out = emit_to_string(&diamond(), 1, 1, OutputMode::Histogram);
        assert_eq!(out, "3 2\n");
    }

    #[test]
    fn max_mode_prints_one_clique() {
        let out = emit_to_string(&diamond(), 1, 1, OutputMode::Max);
        let members: Vec<&str> = out.trim().split(' ').collect();
        assert_eq!(members.len(), 3);
    }

    #[test]
    fn min_size_filters_output() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]).unwrap();
        let out = emit_to_string(&g, 1, 3, OutputMode::Count);
        assert!(out.starts_with("cliques 1\n"), "{out}");
    }

    #[test]
    fn output_is_identical_across_thread_counts_and_schedulers() {
        let g = diamond();
        let baseline = emit_to_string(&g, 1, 1, OutputMode::Text);
        for threads in [2, 4] {
            assert_eq!(
                emit_with_config(&g, &SolverConfig::hbbmc_pp(), threads, 1, OutputMode::Text),
                baseline,
                "x{threads}"
            );
        }
    }

    #[test]
    fn progress_reporting_does_not_perturb_sink_output() {
        let g = diamond();
        let baseline = emit_to_string(&g, 2, 1, OutputMode::Count);
        let mut sink: Vec<u8> = Vec::new();
        let config = SolverConfig::hbbmc_pp();
        let mut boxed: Box<dyn Write + Send> = Box::new(&mut sink);
        emit_with_progress(
            &g,
            &config,
            2,
            &Budget::unlimited(),
            1,
            OutputMode::Count,
            &mut *boxed,
        )
        .unwrap();
        drop(boxed);
        assert_eq!(String::from_utf8(sink).unwrap(), baseline);
    }

    #[test]
    fn limit_truncates_text_output_to_a_prefix() {
        let g = diamond();
        let full = emit_to_string(&g, 1, 1, OutputMode::Text);
        let mut sink: Vec<u8> = Vec::new();
        let mut boxed: Box<dyn Write + Send> = Box::new(&mut sink);
        let (_, outcome) = emit(
            &g,
            &SolverConfig::hbbmc_pp(),
            1,
            &Budget::cliques(1),
            1,
            OutputMode::Text,
            None,
            &mut *boxed,
        )
        .unwrap();
        drop(boxed);
        let got = String::from_utf8(sink).unwrap();
        assert_eq!(got, full.lines().next().unwrap().to_owned() + "\n");
        assert!(outcome.is_truncated());
    }

    #[test]
    fn parse_rejects_unknown_mode_and_scheduler() {
        assert!(parse_output_mode(Some("xml")).is_err());
        assert_eq!(parse_output_mode(None).unwrap(), OutputMode::Count);
        assert_eq!(
            check_scheduler("magic").unwrap_err(),
            "unknown scheduler 'magic' (expected dynamic, static or splitting)"
        );
        for name in ["dynamic", "static", "splitting"] {
            assert!(check_scheduler(name).is_ok(), "{name}");
        }
    }
}
