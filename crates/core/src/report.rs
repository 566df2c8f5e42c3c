//! Clique reporters: how enumerated maximal cliques are consumed.
//!
//! Enumeration frameworks produce cliques one at a time; a [`CliqueReporter`]
//! decides what happens to them (count, collect, stream to a callback, …).
//! Keeping this behind a trait lets the benchmark harness count millions of
//! cliques without materialising them while the tests collect and compare
//! exact sets.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Write};

use mce_graph::VertexId;

/// Consumer of maximal cliques produced by the enumeration frameworks.
pub trait CliqueReporter {
    /// Called once per maximal clique. `clique` is unsorted and only valid for
    /// the duration of the call.
    fn report(&mut self, clique: &[VertexId]);
}

impl<R: CliqueReporter + ?Sized> CliqueReporter for &mut R {
    fn report(&mut self, clique: &[VertexId]) {
        (**self).report(clique)
    }
}

/// Counts cliques and tracks size statistics without storing them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CountReporter {
    /// Number of maximal cliques reported.
    pub count: u64,
    /// Size of the largest maximal clique seen.
    pub max_size: usize,
    /// Sum of clique sizes (for computing the average).
    pub total_size: u64,
}

impl CountReporter {
    /// Creates a fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average clique size (0.0 when nothing was reported).
    pub fn average_size(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_size as f64 / self.count as f64
        }
    }
}

impl CliqueReporter for CountReporter {
    fn report(&mut self, clique: &[VertexId]) {
        self.count += 1;
        self.max_size = self.max_size.max(clique.len());
        self.total_size += clique.len() as u64;
    }
}

/// Collects every clique as a sorted vector (intended for tests and small graphs).
#[derive(Clone, Debug, Default)]
pub struct CollectReporter {
    /// All reported cliques, each sorted ascending.
    pub cliques: Vec<Vec<VertexId>>,
}

impl CollectReporter {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the collected cliques sorted canonically (each clique sorted,
    /// cliques sorted lexicographically) — convenient for equality checks.
    pub fn into_sorted(mut self) -> Vec<Vec<VertexId>> {
        self.cliques.sort();
        self.cliques
    }
}

impl CliqueReporter for CollectReporter {
    fn report(&mut self, clique: &[VertexId]) {
        let mut c = clique.to_vec();
        c.sort_unstable();
        self.cliques.push(c);
    }
}

/// Streams every clique to a user callback.
pub struct CallbackReporter<F: FnMut(&[VertexId])> {
    callback: F,
}

impl<F: FnMut(&[VertexId])> CallbackReporter<F> {
    /// Wraps `callback` as a reporter.
    pub fn new(callback: F) -> Self {
        CallbackReporter { callback }
    }
}

impl<F: FnMut(&[VertexId])> CliqueReporter for CallbackReporter<F> {
    fn report(&mut self, clique: &[VertexId]) {
        (self.callback)(clique)
    }
}

/// Keeps only the **canonical** maximum clique seen.
///
/// Ties are broken deterministically: among equal-size cliques the one whose
/// ascending-sorted member list is lexicographically smallest wins — the
/// first maximum in the canonical (sorted-members) enumeration order. This
/// makes the winner independent of stream order, preset, thread count and
/// engine, so the enumeration-riding path and the branch-and-bound engine
/// ([`maxclique`](crate::maxclique)) return byte-identical results.
#[derive(Clone, Debug, Default)]
pub struct MaximumCliqueReporter {
    /// The canonical maximum clique reported so far, sorted ascending.
    pub best: Vec<VertexId>,
    /// Reusable sort buffer for tie comparisons.
    scratch: Vec<VertexId>,
}

impl MaximumCliqueReporter {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CliqueReporter for MaximumCliqueReporter {
    fn report(&mut self, clique: &[VertexId]) {
        use std::cmp::Ordering;
        match clique.len().cmp(&self.best.len()) {
            Ordering::Less => {}
            Ordering::Greater => {
                self.best.clear();
                self.best.extend_from_slice(clique);
                self.best.sort_unstable();
            }
            Ordering::Equal => {
                if clique.is_empty() {
                    return;
                }
                self.scratch.clear();
                self.scratch.extend_from_slice(clique);
                self.scratch.sort_unstable();
                if self.scratch < self.best {
                    std::mem::swap(&mut self.best, &mut self.scratch);
                }
            }
        }
    }
}

/// Retains only cliques with at least `min_size` vertices, forwarding them to
/// an inner reporter. Useful for the community-detection style applications in
/// the examples.
pub struct MinSizeFilter<R: CliqueReporter> {
    inner: R,
    min_size: usize,
}

impl<R: CliqueReporter> MinSizeFilter<R> {
    /// Wraps `inner`, dropping cliques smaller than `min_size`.
    pub fn new(inner: R, min_size: usize) -> Self {
        MinSizeFilter { inner, min_size }
    }

    /// Unwraps the inner reporter.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: CliqueReporter> CliqueReporter for MinSizeFilter<R> {
    fn report(&mut self, clique: &[VertexId]) {
        if clique.len() >= self.min_size {
            self.inner.report(clique);
        }
    }
}

/// Builds a histogram of clique sizes (`histogram[s]` = number of maximal
/// cliques with exactly `s` vertices).
#[derive(Clone, Debug, Default)]
pub struct SizeHistogramReporter {
    /// Clique counts indexed by clique size (index 0 is unused).
    pub histogram: Vec<u64>,
}

impl SizeHistogramReporter {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size of the largest clique recorded (0 when empty).
    pub fn max_size(&self) -> usize {
        self.histogram.iter().rposition(|&c| c > 0).unwrap_or(0)
    }
}

impl CliqueReporter for SizeHistogramReporter {
    fn report(&mut self, clique: &[VertexId]) {
        let size = clique.len();
        if self.histogram.len() <= size {
            self.histogram.resize(size + 1, 0);
        }
        self.histogram[size] += 1;
    }
}

/// A clique kept by [`TopKReporter`]: `(size, reversed arrival sequence
/// number, sorted members)`, so a larger key ranks higher.
type Retained = (usize, Reverse<u64>, Vec<VertexId>);

/// Keeps the `k` largest cliques seen, with a deterministic ranking: larger
/// cliques first, ties broken by arrival order (earliest first). Fed from a
/// deterministic stream (e.g. a
/// [`QuerySpec::Enumerate`](crate::QuerySpec::Enumerate) session) the
/// selection is identical at any thread count, which is what the query
/// layer's `TopKBySize` spec relies on.
#[derive(Clone, Debug, Default)]
pub struct TopKReporter {
    k: usize,
    /// Min-heap of the retained cliques: its top is the worst-ranked one,
    /// the smallest and, among equal sizes, the latest.
    entries: BinaryHeap<Reverse<Retained>>,
    seen: u64,
}

impl TopKReporter {
    /// A reporter keeping the `k` largest cliques.
    pub fn new(k: usize) -> Self {
        TopKReporter {
            k,
            entries: BinaryHeap::new(),
            seen: 0,
        }
    }

    /// Total cliques observed (not just the retained ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained cliques in ranking order (descending size, ties by
    /// arrival), each sorted ascending.
    pub fn into_cliques(self) -> Vec<Vec<VertexId>> {
        // Ascending `Reverse` order is descending size, then ascending arrival.
        self.entries
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse((_, _, c))| c)
            .collect()
    }
}

impl CliqueReporter for TopKReporter {
    fn report(&mut self, clique: &[VertexId]) {
        let seq = self.seen;
        self.seen += 1;
        if self.k == 0 {
            return;
        }
        let size = clique.len();
        if self.entries.len() == self.k
            && self
                .entries
                .peek()
                .is_some_and(|Reverse(worst)| size <= worst.0)
        {
            return; // ties keep the earlier clique
        }
        let mut sorted = clique.to_vec();
        sorted.sort_unstable();
        self.entries.push(Reverse((size, Reverse(seq), sorted)));
        if self.entries.len() > self.k {
            self.entries.pop();
        }
    }
}

/// How a [`WriterReporter`] renders each clique.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CliqueLineFormat {
    /// One line per clique: members sorted ascending, space-separated.
    Text,
    /// One JSON object per line: `{"size":3,"clique":[0,1,2]}` (NDJSON).
    Ndjson,
}

/// Streams every clique to a [`Write`] sink, one line per clique, without ever
/// materialising the full result set.
///
/// `report` cannot return errors, so the first I/O failure is stashed and all
/// subsequent cliques are dropped; [`WriterReporter::finish`] flushes the sink
/// and surfaces that error. Drivers that care about broken pipes or full disks
/// must call `finish` (or [`WriterReporter::take_error`]) before exiting 0.
pub struct WriterReporter<W: Write> {
    out: W,
    format: CliqueLineFormat,
    sorted: Vec<VertexId>,
    line: String,
    error: Option<io::Error>,
}

impl<W: Write> WriterReporter<W> {
    /// Wraps `out`, rendering cliques as `format` lines.
    pub fn new(out: W, format: CliqueLineFormat) -> Self {
        WriterReporter {
            out,
            format,
            sorted: Vec::new(),
            line: String::new(),
            error: None,
        }
    }

    /// Takes the first I/O error hit while streaming, if any.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Flushes the sink and returns it, or the first error encountered.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn render(&mut self, clique: &[VertexId]) {
        use std::fmt::Write as _;
        self.sorted.clear();
        self.sorted.extend_from_slice(clique);
        self.sorted.sort_unstable();
        self.line.clear();
        match self.format {
            CliqueLineFormat::Text => {
                for (i, v) in self.sorted.iter().enumerate() {
                    if i > 0 {
                        self.line.push(' ');
                    }
                    let _ = write!(self.line, "{v}");
                }
            }
            CliqueLineFormat::Ndjson => {
                let _ = write!(self.line, "{{\"size\":{},\"clique\":[", self.sorted.len());
                for (i, v) in self.sorted.iter().enumerate() {
                    if i > 0 {
                        self.line.push(',');
                    }
                    let _ = write!(self.line, "{v}");
                }
                self.line.push_str("]}");
            }
        }
        self.line.push('\n');
    }
}

impl<W: Write> CliqueReporter for WriterReporter<W> {
    fn report(&mut self, clique: &[VertexId]) {
        if self.error.is_some() {
            return;
        }
        self.render(clique);
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_reporter_tracks_sizes() {
        let mut r = CountReporter::new();
        r.report(&[1, 2, 3]);
        r.report(&[4]);
        assert_eq!(r.count, 2);
        assert_eq!(r.max_size, 3);
        assert_eq!(r.total_size, 4);
        assert!((r.average_size() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn count_reporter_empty_average() {
        assert_eq!(CountReporter::new().average_size(), 0.0);
    }

    #[test]
    fn collect_reporter_sorts_members_and_canonical_order() {
        let mut r = CollectReporter::new();
        r.report(&[3, 1, 2]);
        r.report(&[0, 5]);
        let sorted = r.into_sorted();
        assert_eq!(sorted, vec![vec![0, 5], vec![1, 2, 3]]);
    }

    #[test]
    fn callback_reporter_invokes_closure() {
        let mut seen = Vec::new();
        {
            let mut r = CallbackReporter::new(|c: &[VertexId]| seen.push(c.len()));
            r.report(&[1, 2]);
            r.report(&[1, 2, 3]);
        }
        assert_eq!(seen, vec![2, 3]);
    }

    #[test]
    fn maximum_clique_reporter_keeps_largest() {
        let mut r = MaximumCliqueReporter::new();
        r.report(&[5, 4]);
        r.report(&[9, 7, 8]);
        r.report(&[1, 2]);
        assert_eq!(r.best, vec![7, 8, 9]);
    }

    #[test]
    fn maximum_clique_tie_break_is_order_independent() {
        // Regression: the winner among equal-size cliques is the canonical
        // (lexicographically smallest sorted) one, regardless of the order
        // the stream delivers them in — the contract that lets the
        // enumeration path and the branch-and-bound engine agree
        // byte-for-byte.
        let cliques: [&[VertexId]; 4] = [&[9, 7, 8], &[2, 6, 4], &[3, 2, 9], &[2, 4, 5]];
        let expected = vec![2, 3, 9]; // sorted lists: [2,3,9] < [2,4,5] < [2,4,6] < [7,8,9]
                                      // Forward arrival order.
        let mut fwd = MaximumCliqueReporter::new();
        for c in cliques {
            fwd.report(c);
        }
        assert_eq!(fwd.best, expected);
        // Reverse arrival order must pick the identical winner.
        let mut rev = MaximumCliqueReporter::new();
        for c in cliques.iter().rev() {
            rev.report(c);
        }
        assert_eq!(rev.best, expected);
        // A strictly larger clique still beats any canonical smaller one.
        fwd.report(&[50, 40, 30, 20]);
        assert_eq!(fwd.best, vec![20, 30, 40, 50]);
    }

    #[test]
    fn size_histogram_counts_by_size() {
        let mut r = SizeHistogramReporter::new();
        r.report(&[1, 2, 3]);
        r.report(&[4, 5, 6]);
        r.report(&[7]);
        assert_eq!(r.histogram[3], 2);
        assert_eq!(r.histogram[1], 1);
        assert_eq!(r.max_size(), 3);
        assert_eq!(SizeHistogramReporter::new().max_size(), 0);
    }

    #[test]
    fn writer_reporter_streams_sorted_text_lines() {
        let mut r = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        r.report(&[3, 1, 2]);
        r.report(&[7]);
        let out = String::from_utf8(r.finish().unwrap()).unwrap();
        assert_eq!(out, "1 2 3\n7\n");
    }

    #[test]
    fn writer_reporter_streams_ndjson_lines() {
        let mut r = WriterReporter::new(Vec::new(), CliqueLineFormat::Ndjson);
        r.report(&[2, 0]);
        let out = String::from_utf8(r.finish().unwrap()).unwrap();
        assert_eq!(out, "{\"size\":2,\"clique\":[0,2]}\n");
    }

    #[test]
    fn writer_reporter_stashes_io_errors() {
        struct FailingSink;
        impl std::io::Write for FailingSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut r = WriterReporter::new(FailingSink, CliqueLineFormat::Text);
        r.report(&[1]);
        r.report(&[2]); // silently dropped after the first failure
        assert!(r.finish().is_err());
    }

    #[test]
    fn mut_reference_is_a_reporter() {
        let mut inner = CountReporter::new();
        {
            let mut r: &mut CountReporter = &mut inner;
            CliqueReporter::report(&mut r, &[1, 2]);
        }
        assert_eq!(inner.count, 1);
    }

    #[test]
    fn top_k_keeps_largest_with_earliest_tiebreak() {
        let mut r = TopKReporter::new(2);
        r.report(&[5, 4]); // size 2, first
        r.report(&[3, 2, 1]); // size 3
        r.report(&[9, 8]); // size 2, later than [4,5] — must lose the tie
        r.report(&[7, 6]); // same
        assert_eq!(r.seen(), 4);
        assert_eq!(r.into_cliques(), vec![vec![1, 2, 3], vec![4, 5]]);
    }

    #[test]
    fn top_k_zero_and_underfull() {
        let mut r = TopKReporter::new(0);
        r.report(&[1]);
        assert!(r.into_cliques().is_empty());
        let mut r = TopKReporter::new(5);
        r.report(&[2, 1]);
        assert_eq!(r.into_cliques(), vec![vec![1, 2]]);
    }

    #[test]
    fn min_size_filter_drops_small_cliques() {
        let mut f = MinSizeFilter::new(CountReporter::new(), 3);
        f.report(&[1, 2]);
        f.report(&[1, 2, 3]);
        f.report(&[1, 2, 3, 4]);
        let inner = f.into_inner();
        assert_eq!(inner.count, 2);
        assert_eq!(inner.max_size, 4);
    }
}
