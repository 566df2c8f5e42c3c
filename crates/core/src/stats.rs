//! Enumeration statistics: the `#Calls` and early-termination ratio columns of
//! the paper's Tables IV and V, plus bookkeeping for the other experiments.

use std::time::Duration;

/// Counters collected during an enumeration run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnumerationStats {
    /// Number of maximal cliques reported.
    pub maximal_cliques: u64,
    /// Size of the largest maximal clique reported.
    pub max_clique_size: usize,
    /// Number of recursive branch evaluations (the paper's `#Calls`).
    pub recursive_calls: u64,
    /// Number of branches created by the initial (root) branching step.
    pub initial_branches: u64,
    /// Branches whose candidate graph was a t-plex (the paper's `b`).
    pub et_eligible: u64,
    /// Branches that were actually early-terminated, i.e. candidate graph a
    /// t-plex *and* exclusion graph empty (the paper's `b0`).
    pub et_terminated: u64,
    /// Maximal cliques emitted directly by early termination.
    pub et_cliques: u64,
    /// Maximal cliques emitted directly by the graph-reduction preprocessing.
    pub gr_cliques: u64,
    /// Vertices removed by the graph-reduction preprocessing.
    pub gr_removed_vertices: u64,
    /// Sub-branch tasks donated to the shared pool by parallel workers (0 on
    /// a sequential run).
    pub splits: u64,
    /// Donated tasks stolen from the pool and resumed by a worker (equals
    /// `splits` after a completed run — every donated task is eventually
    /// executed).
    pub steals: u64,
    /// Recursion frames abandoned because the session's [`Budget`]
    /// (clique/step limit or cancellation) tripped — 0 on a complete run,
    /// and at least 1 on any truncated one: when the budget trips *between*
    /// frames (between root ranks, or at the output gate after the last
    /// frame) the budgeted entry points charge the run itself, so
    /// `mce query --stats` and the serve metrics report truncation
    /// consistently for every spec, including `Count` and `TopKBySize`.
    ///
    /// [`Budget`]: crate::Budget
    pub terminated_by_budget: u64,
    /// Root branches an anchored query never had to open: the vertices
    /// outside the anchor and its common neighbourhood (each would be a root
    /// of a full vertex-oriented enumeration). 0 for non-anchored runs.
    pub anchored_roots_skipped: u64,
    /// Branch-and-bound nodes pruned by the greedy-coloring upper bound:
    /// `|R| + colors(C) ≤ lb` proved the subtree cannot beat the incumbent
    /// (see [`maxclique`](crate::maxclique)). 0 for plain enumeration runs.
    pub branches_pruned_by_color: u64,
    /// Branch-and-bound root branches skipped by the core-number bound:
    /// every clique through vertex `v` has at most `core(v) + 1` vertices,
    /// so roots with `core(v) + 1 ≤ lb` never open. 0 for plain enumeration.
    pub branches_pruned_by_core: u64,
    /// Times the branch-and-bound incumbent (lower bound) improved, counting
    /// the initial greedy clique when it is non-empty. 0 for plain
    /// enumeration runs.
    pub lb_updates: u64,
    /// Wall-clock time of the whole run (ordering + reduction + enumeration).
    pub elapsed: Duration,
    /// Wall-clock time spent computing the vertex/edge ordering of the root,
    /// summed over the threads that computed it. A whole ordering is timed
    /// once, before the first root. For the depth-1 truss presets it is the
    /// support count plus every chunk of the incremental truss peel, which
    /// runs between chunks of roots (sequential runs) or on worker 0 while
    /// the other workers run roots (parallel runs, where it also counts in
    /// `busy_time`).
    pub ordering_time: Duration,
    /// Summed per-worker wall time spent executing enumeration work (as
    /// opposed to waiting for work). `busy_time / (elapsed × threads)` is the
    /// utilisation of a parallel run; sequential runs report
    /// `busy_time == elapsed`. Measured as wall time per work item, so on a
    /// machine with fewer cores than threads it includes descheduled time.
    pub busy_time: Duration,
}

impl EnumerationStats {
    /// Ratio `b0 / b` of Table V: how often an eligible (t-plex) branch could
    /// actually be early-terminated because its exclusion graph was empty.
    /// Returns 0.0 when no branch was eligible.
    pub fn et_ratio(&self) -> f64 {
        if self.et_eligible == 0 {
            0.0
        } else {
            self.et_terminated as f64 / self.et_eligible as f64
        }
    }

    /// Merges the counters of another run into this one (used by the parallel
    /// driver to combine per-worker statistics). Durations are summed except
    /// `elapsed`, which takes the maximum (workers run concurrently).
    pub fn merge(&mut self, other: &EnumerationStats) {
        self.maximal_cliques += other.maximal_cliques;
        self.max_clique_size = self.max_clique_size.max(other.max_clique_size);
        self.recursive_calls += other.recursive_calls;
        self.initial_branches += other.initial_branches;
        self.et_eligible += other.et_eligible;
        self.et_terminated += other.et_terminated;
        self.et_cliques += other.et_cliques;
        self.gr_cliques += other.gr_cliques;
        self.gr_removed_vertices += other.gr_removed_vertices;
        self.splits += other.splits;
        self.steals += other.steals;
        self.terminated_by_budget += other.terminated_by_budget;
        self.anchored_roots_skipped += other.anchored_roots_skipped;
        self.branches_pruned_by_color += other.branches_pruned_by_color;
        self.branches_pruned_by_core += other.branches_pruned_by_core;
        self.lb_updates += other.lb_updates;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.ordering_time += other.ordering_time;
        self.busy_time += other.busy_time;
    }
}

impl std::fmt::Display for EnumerationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} maximal cliques (max size {}) in {:.3}s — {} calls, {} root branches, \
             ET {}/{} (ratio {:.1}%), GR reported {} over {} removed vertices, \
             {} splits / {} steals, {} budget-terminated, {} anchored-skipped, \
             B&B {} color-pruned / {} core-pruned / {} lb updates, busy {:.3}s",
            self.maximal_cliques,
            self.max_clique_size,
            self.elapsed.as_secs_f64(),
            self.recursive_calls,
            self.initial_branches,
            self.et_terminated,
            self.et_eligible,
            100.0 * self.et_ratio(),
            self.gr_cliques,
            self.gr_removed_vertices,
            self.splits,
            self.steals,
            self.terminated_by_budget,
            self.anchored_roots_skipped,
            self.branches_pruned_by_color,
            self.branches_pruned_by_core,
            self.lb_updates,
            self.busy_time.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_eligible() {
        let s = EnumerationStats::default();
        assert_eq!(s.et_ratio(), 0.0);
    }

    #[test]
    fn ratio_computes_fraction() {
        let s = EnumerationStats {
            et_eligible: 10,
            et_terminated: 7,
            ..Default::default()
        };
        assert!((s.et_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = EnumerationStats {
            maximal_cliques: 5,
            max_clique_size: 4,
            recursive_calls: 100,
            elapsed: Duration::from_millis(30),
            ..Default::default()
        };
        let b = EnumerationStats {
            maximal_cliques: 7,
            max_clique_size: 6,
            recursive_calls: 50,
            elapsed: Duration::from_millis(20),
            gr_cliques: 2,
            branches_pruned_by_color: 11,
            branches_pruned_by_core: 3,
            lb_updates: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.maximal_cliques, 12);
        assert_eq!(a.max_clique_size, 6);
        assert_eq!(a.recursive_calls, 150);
        assert_eq!(a.gr_cliques, 2);
        assert_eq!(a.elapsed, Duration::from_millis(30));
        assert_eq!(a.branches_pruned_by_color, 11);
        assert_eq!(a.branches_pruned_by_core, 3);
        assert_eq!(a.lb_updates, 2);
    }

    #[test]
    fn display_contains_key_figures() {
        let s = EnumerationStats {
            maximal_cliques: 42,
            recursive_calls: 7,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("42"));
        assert!(text.contains("7 calls"));
    }
}
