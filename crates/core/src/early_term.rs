//! Early termination: constructing maximal cliques of a dense candidate graph
//! directly from its complement (Algorithms 5–8 of the paper).
//!
//! When a branch `(S, gC, gX)` reaches a state where `gC` is a t-plex
//! (`t ≤ 3`) and `gX` is empty, the complement of `gC` has maximum degree at
//! most 2 and therefore decomposes into isolated vertices `F`, simple paths
//! and simple cycles. Every maximal clique of `gC` is obtained by taking all
//! of `F` plus, independently for each path and each cycle, one *maximal
//! independent set* of that path/cycle (an independent set in the complement
//! is a clique in `gC`). The paths' and cycles' maximal independent sets are
//! enumerated by the +2/+3 expansion of Algorithm 6 and the three-case
//! reduction of Algorithm 7; the cross product of the per-component choices
//! (lines 5–8 of Algorithm 8) yields every maximal clique of the branch in
//! time proportional to the output.
//!
//! The emitter reads each candidate's complement neighbours straight off the
//! `LocalGraph` rows, walks the paths and cycles into flat `PlexScratch`
//! buffers, and streams the cross product depth-first into the caller's
//! sink, so a warm worker ends a branch without touching the allocator.

use mce_graph::{BitSet, VertexId};

use crate::local::LocalGraph;

/// Pads a candidate's complement-neighbour pair when it has fewer than two.
const NONE: u32 = u32::MAX;

/// Algorithm 7's choices on the short cycles, as indices into the cycle's
/// walk order (lengths 3, 4 and 5); longer cycles use the three-case split.
const SHORT_CYCLES: [&[&[usize]]; 3] = [
    &[&[0], &[1], &[2]],
    &[&[0, 2], &[1, 3]],
    &[&[0, 2], &[0, 3], &[1, 3], &[1, 4], &[2, 4]],
];

/// Reusable buffers of the early-termination emitter, kept in the worker's
/// search scratch so a warm worker's early-terminated branches allocate
/// nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlexScratch {
    /// Complement neighbours inside `C` of each candidate (by local id), in
    /// ascending order and padded with `NONE`.
    nbrs: Vec<[u32; 2]>,
    /// Whether a candidate already lies on a walked path or cycle.
    walked: Vec<bool>,
    /// Original ids of the path and cycle vertices, component after
    /// component, each in walk order.
    walk: Vec<VertexId>,
    /// End offset in `walk` of each path, then of each cycle.
    ends: Vec<usize>,
}

impl PlexScratch {
    /// Appends the component starting at `start` to `walk`, always stepping
    /// to the smaller unwalked complement neighbour.
    fn walk_from(&mut self, start: usize, orig: &[VertexId]) {
        let mut cur = start;
        loop {
            self.walked[cur] = true;
            self.walk.push(orig[cur]);
            let next = self.nbrs[cur]
                .into_iter()
                .find(|&w| w != NONE && !self.walked[w as usize]);
            match next {
                Some(w) => cur = w as usize,
                None => break,
            }
        }
        self.ends.push(self.walk.len());
    }

    /// The paths, then the cycles, that the last branch walked, each in walk
    /// order.
    #[cfg(test)]
    pub(crate) fn walked(&self) -> Vec<&[VertexId]> {
        let mut start = 0;
        self.ends
            .iter()
            .map(|&end| {
                let seq = &self.walk[start..end];
                start = end;
                seq
            })
            .collect()
    }
}

/// Enumerates all maximal cliques of the branch `(S, C, ∅)`, where the
/// candidate set `C` induces (in the true graph adjacency) a t-plex with
/// `t ≤ 3`, so each candidate misses at most two other candidates. Each
/// clique is passed to `report` as `S ∪ F ∪ (per-component choice)`: `F` in
/// ascending local id, then one choice per path (paths ordered by their
/// smaller end), then one per cycle (ordered by their smallest vertex).
/// `s` is restored before returning.
///
/// Returns the number of cliques reported (0 for an empty `C`).
pub(crate) fn enumerate_plex_branch(
    lg: &LocalGraph,
    c: &BitSet,
    buf: &mut PlexScratch,
    s: &mut Vec<VertexId>,
    report: &mut dyn FnMut(&[VertexId]),
) -> u64 {
    if c.is_empty() {
        return 0;
    }
    if buf.nbrs.len() < lg.len() {
        buf.nbrs.resize(lg.len(), [NONE; 2]);
        buf.walked.resize(lg.len(), false);
    }
    buf.walk.clear();
    buf.ends.clear();
    let base_len = s.len();

    // Each candidate's complement neighbours; the isolated ones (F) are part
    // of every maximal clique.
    for v in c.iter() {
        let mut missed = c.and_not_iter(lg.gadj(v)).filter(|&w| w != v);
        let nbrs = [missed.next(), missed.next()].map(|w| w.map_or(NONE, |w| w as u32));
        debug_assert!(
            missed.next().is_none(),
            "candidate {v} misses more than two candidates"
        );
        buf.nbrs[v] = nbrs;
        buf.walked[v] = false;
        if nbrs[0] == NONE {
            s.push(lg.orig[v]);
        }
    }
    // Paths, each walked from its smaller end.
    for v in c.iter() {
        let [a, b] = buf.nbrs[v];
        if a != NONE && b == NONE && !buf.walked[v] {
            buf.walk_from(v, &lg.orig);
        }
    }
    let first_cycle = buf.ends.len();
    // Cycles: every unwalked vertex left has two complement neighbours.
    for v in c.iter() {
        if buf.nbrs[v][0] != NONE && !buf.walked[v] {
            buf.walk_from(v, &lg.orig);
        }
    }

    let mut emitter = Emitter {
        walk: &buf.walk,
        ends: &buf.ends,
        first_cycle,
        report,
        emitted: 0,
    };
    emitter.component(0, s);
    s.truncate(base_len);
    emitter.emitted
}

/// The depth-first walk of the cross product of the per-component choices.
struct Emitter<'a> {
    walk: &'a [VertexId],
    ends: &'a [usize],
    first_cycle: usize,
    report: &'a mut dyn FnMut(&[VertexId]),
    emitted: u64,
}

impl Emitter<'_> {
    /// Extends `s` by each choice of component `i` in turn, and each of
    /// those by every choice of the later components; reports `s` once the
    /// components run out.
    fn component(&mut self, i: usize, s: &mut Vec<VertexId>) {
        let Some(&end) = self.ends.get(i) else {
            (self.report)(s);
            self.emitted += 1;
            return;
        };
        let walk = self.walk;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        let seq = &walk[start..end];
        let l = seq.len();
        if i < self.first_cycle {
            self.path(seq, 0, i, s);
            self.path(seq, 1, i, s);
        } else if l <= 5 {
            for choice in SHORT_CYCLES[l - 3] {
                s.extend(choice.iter().map(|&j| seq[j]));
                self.component(i + 1, s);
                s.truncate(s.len() - choice.len());
            }
        } else {
            // Case 1: v1 in the clique — walk the path v1 … v_{l-1}.
            self.path(&seq[..l - 1], 0, i, s);
            // Case 2: v2 in the clique — walk the path v2 … v_l.
            self.path(&seq[1..], 0, i, s);
            // Case 3: neither v1 nor v2 — v_l and v3 are forced, walk v3 … v_{l-2}.
            s.push(seq[l - 1]);
            self.path(&seq[2..l - 2], 0, i, s);
            s.pop();
        }
    }

    /// The +2 / +3 expansion step of Algorithm 6 (0-based indices) on a path
    /// of component `i`: takes `seq[idx]`, then either moves on to the next
    /// component (the path is covered) or continues two or three vertices on.
    fn path(&mut self, seq: &[VertexId], idx: usize, i: usize, s: &mut Vec<VertexId>) {
        s.push(seq[idx]);
        if idx + 2 >= seq.len() {
            self.component(i + 1, s);
        } else {
            self.path(seq, idx + 2, i, s);
            if idx + 3 < seq.len() {
                self.path(seq, idx + 3, i, s);
            }
        }
        s.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_maximal_cliques;
    use mce_graph::{BitSet, Graph};

    /// Runs the emitter on `c` with partial clique `s`, returning every
    /// reported clique in emission order, each as reported.
    fn emitted(lg: &LocalGraph, c: &BitSet, s: &mut Vec<VertexId>) -> Vec<Vec<VertexId>> {
        let mut got = Vec::new();
        let count = enumerate_plex_branch(lg, c, &mut PlexScratch::default(), s, &mut |cl| {
            got.push(cl.to_vec())
        });
        assert_eq!(count, got.len() as u64);
        got
    }

    /// [`emitted`] with each clique sorted, and the cliques sorted.
    fn emitted_sorted(lg: &LocalGraph, c: &BitSet, s: &mut Vec<VertexId>) -> Vec<Vec<VertexId>> {
        let mut got = emitted(lg, c, s);
        for cl in got.iter_mut() {
            cl.sort_unstable();
        }
        got.sort();
        got
    }

    /// The graph on `n` vertices with every edge except `missing`.
    fn all_but(n: usize, missing: &[(u32, u32)]) -> Graph {
        let edges = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .filter(|&(u, v)| !missing.contains(&(u, v)) && !missing.contains(&(v, u)));
        Graph::from_edges(n, edges).unwrap()
    }

    /// The consecutive pairs of `walk`, closing it into a cycle when `cycle`.
    fn chain(walk: &[u32], cycle: bool) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = walk.windows(2).map(|w| (w[0], w[1])).collect();
        if cycle {
            out.push((walk[walk.len() - 1], walk[0]));
        }
        out
    }

    /// Runs the emitter on [`all_but`]`(n, missing)` with the local ids
    /// `outside` left out of C, rendering each reported clique as its
    /// space-separated ids, in emission order.
    fn emitted_text(
        n: usize,
        missing: &[(u32, u32)],
        outside: &[usize],
        s: &mut Vec<VertexId>,
    ) -> Vec<String> {
        let g = all_but(n, missing);
        let lg = LocalGraph::from_vertices(&g, &(0..n as u32).collect::<Vec<_>>());
        let mut c = BitSet::full(n);
        for &v in outside {
            c.remove(v);
        }
        emitted(&lg, &c, s)
            .iter()
            .map(|cl| cl.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
            .collect()
    }

    #[test]
    fn emission_order_is_pinned() {
        // The labels are scrambled so that the walk order (paths from their
        // smaller end, cycles from their smallest vertex towards its smaller
        // neighbour) shows in the output. Local vertex 4 is outside C and
        // misses 0 and 6: the emitter must not count it as a complement
        // neighbour, so 6 and 10 are F.
        let mut missing = [chain(&[7, 2, 9, 0, 5], false), chain(&[1, 8, 3], true)].concat();
        missing.extend([(4, 0), (4, 6)]);
        let mut s = vec![99];
        assert_eq!(
            emitted_text(11, &missing, &[4], &mut s),
            [
                "99 6 10 5 9 7 1",
                "99 6 10 5 9 7 3",
                "99 6 10 5 9 7 8",
                "99 6 10 5 2 1",
                "99 6 10 5 2 3",
                "99 6 10 5 2 8",
                "99 6 10 0 2 1",
                "99 6 10 0 2 3",
                "99 6 10 0 2 8",
                "99 6 10 0 7 1",
                "99 6 10 0 7 3",
                "99 6 10 0 7 8",
            ]
        );
        assert_eq!(s, [99], "partial clique restored");

        let square_and_pentagon = [chain(&[0, 5, 2, 7], true), chain(&[1, 6, 3, 8, 4], true)];
        assert_eq!(
            emitted_text(9, &square_and_pentagon.concat(), &[], &mut Vec::new()),
            [
                "0 2 1 8", "0 2 1 3", "0 2 4 3", "0 2 4 6", "0 2 8 6", "5 7 1 8", "5 7 1 3",
                "5 7 4 3", "5 7 4 6", "5 7 8 6",
            ]
        );
        let hexagon = chain(&[0, 3, 1, 4, 2, 5], true);
        assert_eq!(
            emitted_text(6, &hexagon, &[], &mut Vec::new()),
            ["0 1 2", "0 4", "3 4 5", "3 2", "5 1"]
        );
        let octagon = chain(&[6, 1, 4, 0, 7, 2, 5, 3], true);
        assert_eq!(
            emitted_text(8, &octagon, &[], &mut Vec::new()),
            [
                "0 1 3 2", "0 1 5", "0 6 5", "0 6 2", "4 6 5 7", "4 6 2", "4 3 2", "4 3 7",
                "7 1 3", "7 1 5",
            ]
        );
    }

    #[test]
    fn paths_and_cycles_match_the_reference() {
        // The complement of C is one path of 2–10 vertices or one cycle of
        // 3–10, walking the even labels and then the odd ones; the local ids
        // run backwards so original and local ids differ.
        for n in 2..=10u32 {
            for cycle in [false, true] {
                if cycle && n < 3 {
                    continue;
                }
                let walk: Vec<u32> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
                let g = all_but(n as usize, &chain(&walk, cycle));
                let vertices: Vec<u32> = (0..n).rev().collect();
                let lg = LocalGraph::from_vertices(&g, &vertices);
                let got = emitted_sorted(&lg, &BitSet::full(n as usize), &mut Vec::new());
                assert_eq!(got, naive_maximal_cliques(&g), "n {n}, cycle {cycle}");
            }
        }
    }

    #[test]
    fn clique_candidate_emits_single_clique() {
        let g = Graph::complete(5);
        let lg = LocalGraph::from_vertices(&g, &[0, 1, 2, 3, 4]);
        let mut s = vec![100];
        let got = emitted_sorted(&lg, &BitSet::full(5), &mut s);
        assert_eq!(got, vec![vec![0, 1, 2, 3, 4, 100]]);
        assert_eq!(s, vec![100], "partial clique restored");
    }

    #[test]
    fn two_plex_figure3_example() {
        // Paper Figure 3: complement is the matching {(2,4), (3,5)} → 4 maximal cliques.
        let g = all_but(6, &[(2, 4), (3, 5)]);
        let lg = LocalGraph::from_vertices(&g, &[0, 1, 2, 3, 4, 5]);
        let got = emitted_sorted(&lg, &BitSet::full(6), &mut Vec::new());
        assert_eq!(
            got,
            vec![
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 5],
                vec![0, 1, 3, 4],
                vec![0, 1, 4, 5]
            ]
        );
    }

    #[test]
    fn three_plex_figure4_example() {
        // Paper Figure 4: complement has path 0-1-2 and triangle 3-4-5 → 6 maximal cliques.
        let g = all_but(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]);
        let lg = LocalGraph::from_vertices(&g, &[0, 1, 2, 3, 4, 5]);
        let got = emitted_sorted(&lg, &BitSet::full(6), &mut Vec::new());
        assert_eq!(
            got,
            vec![
                vec![0, 2, 3],
                vec![0, 2, 4],
                vec![0, 2, 5],
                vec![1, 3],
                vec![1, 4],
                vec![1, 5]
            ]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "misses more than two candidates")]
    fn non_plex_candidate_trips_the_degree_assertion() {
        // A path on 6 vertices is far from a 3-plex: its complement has high
        // degree, which `plex_condition` rules out before the emitter runs.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let lg = LocalGraph::from_vertices(&g, &[0, 1, 2, 3, 4, 5]);
        emitted(&lg, &BitSet::full(6), &mut Vec::new());
    }

    #[test]
    fn empty_candidate_emits_nothing() {
        let g = Graph::complete(3);
        let lg = LocalGraph::from_vertices(&g, &[0, 1, 2]);
        let mut s = vec![9];
        assert!(emitted(&lg, &BitSet::with_capacity(3), &mut s).is_empty());
        assert_eq!(s, vec![9]);
    }

    #[test]
    fn cross_product_counts_match_component_product() {
        // Complement = two disjoint matchings (2-plex) on 4 vertices → 2*2 = 4 cliques…
        // plus a 5-cycle complement (3-plex) on 5 more → 4 * 5 = 20 cliques.
        let g = all_but(9, &[(0, 1), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (4, 8)]);
        let lg = LocalGraph::from_vertices(&g, &(0..9).collect::<Vec<_>>());
        assert_eq!(
            emitted(&lg, &BitSet::full(9), &mut Vec::new()).len(),
            2 * 2 * 5
        );
    }

    #[test]
    fn warm_buffers_are_reused_across_branches() {
        // One scratch across a large branch and then a smaller one: stale
        // entries from the first must not leak into the second.
        let mut buf = PlexScratch::default();
        let big = all_but(9, &[(0, 1), (1, 2), (4, 5), (5, 6), (4, 6)]);
        let lg = LocalGraph::from_vertices(&big, &(0..9).collect::<Vec<_>>());
        let count = enumerate_plex_branch(
            &lg,
            &BitSet::full(9),
            &mut buf,
            &mut Vec::new(),
            &mut |_| {},
        );
        assert_eq!(count, 2 * 3);
        let small = all_but(4, &[(0, 3)]);
        let lg = LocalGraph::from_vertices(&small, &[0, 1, 2, 3]);
        let mut got = Vec::new();
        let count = enumerate_plex_branch(
            &lg,
            &BitSet::full(4),
            &mut buf,
            &mut Vec::new(),
            &mut |cl| got.push(cl.to_vec()),
        );
        assert_eq!(count, 2);
        assert_eq!(got, vec![vec![1, 2, 0], vec![1, 2, 3]]);
    }
}
