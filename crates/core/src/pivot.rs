//! Branch scanning: pivot scores and the early-termination precondition.
//!
//! Every pivoting branch performs a single pass over `C ∪ X` computing, for
//! each vertex, the number of its candidate neighbours inside `C`. That one
//! pass yields everything the different strategies need:
//!
//! * the **classic pivot** (vertex of `C ∪ X` with the most candidate
//!   neighbours in `C`, Tomita et al.),
//! * the **refined** special cases (an exclusion vertex dominating all of `C`
//!   ⇒ prune; a candidate adjacent to all other candidates ⇒ absorb),
//! * the **early-termination precondition** (minimum degree inside `C` at
//!   least `|C| − t`, and no candidate edge removed inside `C`), which the
//!   paper explicitly piggybacks on the pivot scan so its overhead is `O(|C|)`.

use mce_graph::BitSet;

use crate::local::LocalGraph;

/// Result of scanning a branch `(C, X)`.
#[derive(Clone, Debug, Default)]
pub(crate) struct BranchScan {
    /// Local id of the best pivot (vertex of `C ∪ X` with most candidate
    /// neighbours in `C`); `usize::MAX` when `C ∪ X` is empty.
    pub pivot: usize,
    /// Number of candidate neighbours of the pivot inside `C`.
    pub pivot_score: usize,
    /// Minimum over `v ∈ C` of `|N_G(v) ∩ C|` (true-graph degrees).
    pub min_candidate_gdegree: usize,
    /// Candidate vertex with the fewest candidate neighbours inside `C`
    /// (the branching vertex of the `BK_Rcd` recursion); `usize::MAX` when `C`
    /// is empty.
    pub min_degree_candidate: usize,
    /// Candidate-graph degree of [`BranchScan::min_degree_candidate`].
    pub min_candidate_cdegree: usize,
    /// Whether, for every `v ∈ C`, candidate degree equals true-graph degree
    /// inside `C` (i.e. no excluded edge joins two candidates).
    pub candidate_matches_graph: bool,
    /// Some exclusion vertex is adjacent (in G) to every candidate ⇒ the branch
    /// cannot contain any maximal clique.
    pub dominated_by_exclusion: bool,
    /// A candidate adjacent (in the candidate graph) to every other candidate,
    /// if one exists: it belongs to every maximal clique of the branch.
    pub universal_candidate: Option<usize>,
}

/// Scans the branch `(C, X)` over `lg`.
pub(crate) fn scan_branch(lg: &LocalGraph, c: &BitSet, x: &BitSet) -> BranchScan {
    let c_len = c.len();
    let mut scan = BranchScan {
        pivot: usize::MAX,
        pivot_score: 0,
        min_candidate_gdegree: usize::MAX,
        min_degree_candidate: usize::MAX,
        min_candidate_cdegree: usize::MAX,
        candidate_matches_graph: true,
        dominated_by_exclusion: false,
        universal_candidate: None,
    };
    let mut have_pivot = false;

    for v in c.iter() {
        let cand_deg = c.intersection_len_words(lg.cand(v));
        let g_deg = c.intersection_len_words(lg.gadj(v));
        if !have_pivot || cand_deg > scan.pivot_score {
            scan.pivot = v;
            scan.pivot_score = cand_deg;
            have_pivot = true;
        }
        if cand_deg < scan.min_candidate_cdegree {
            scan.min_candidate_cdegree = cand_deg;
            scan.min_degree_candidate = v;
        }
        if g_deg < scan.min_candidate_gdegree {
            scan.min_candidate_gdegree = g_deg;
        }
        if cand_deg != g_deg {
            scan.candidate_matches_graph = false;
        }
        if cand_deg + 1 == c_len && scan.universal_candidate.is_none() {
            scan.universal_candidate = Some(v);
        }
    }
    for v in x.iter() {
        let g_deg = c.intersection_len_words(lg.gadj(v));
        if !have_pivot || g_deg > scan.pivot_score {
            scan.pivot = v;
            scan.pivot_score = g_deg;
            have_pivot = true;
        }
        if g_deg == c_len && c_len > 0 {
            scan.dominated_by_exclusion = true;
        }
    }
    if scan.min_candidate_gdegree == usize::MAX {
        scan.min_candidate_gdegree = 0;
    }
    scan
}

/// Whether the early-termination precondition of the paper holds for the
/// scanned branch: the candidate graph is a `t`-plex (every candidate misses
/// at most `t` candidates, itself included) and no candidate edge has been
/// excluded by an edge-oriented ancestor (so the plex really is a subgraph of
/// the input graph).
pub(crate) fn plex_condition(scan: &BranchScan, c_len: usize, t: usize) -> bool {
    if t == 0 || c_len == 0 {
        return false;
    }
    scan.candidate_matches_graph && scan.min_candidate_gdegree + t >= c_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_graph::{BitSet, Graph};

    fn set(ids: &[usize], cap: usize) -> BitSet {
        let mut s = BitSet::with_capacity(cap);
        for &i in ids {
            s.insert(i);
        }
        s
    }

    #[test]
    fn scan_finds_classic_pivot() {
        // Star centred at 0 inside the local graph: 0 adjacent to 1,2,3; 1-2 edge.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        let lg = crate::local::LocalGraph::from_vertices(&g, &[0, 1, 2, 3]);
        let c = set(&[0, 1, 2, 3], 4);
        let x = set(&[], 4);
        let scan = scan_branch(&lg, &c, &x);
        assert_eq!(scan.pivot, 0);
        assert_eq!(scan.pivot_score, 3);
        assert_eq!(scan.min_candidate_gdegree, 1); // vertex 3 only sees 0
        assert!(scan.candidate_matches_graph);
        assert!(!scan.dominated_by_exclusion);
    }

    #[test]
    fn scan_detects_domination_by_exclusion_vertex() {
        let g = Graph::complete(4);
        let lg = crate::local::LocalGraph::from_vertices(&g, &[0, 1, 2, 3]);
        let c = set(&[0, 1, 2], 4);
        let x = set(&[3], 4);
        let scan = scan_branch(&lg, &c, &x);
        assert!(scan.dominated_by_exclusion);
    }

    #[test]
    fn scan_detects_universal_candidate() {
        // 0 adjacent to 1 and 2, which are not adjacent to each other.
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let lg = crate::local::LocalGraph::from_vertices(&g, &[0, 1, 2]);
        let c = set(&[0, 1, 2], 3);
        let scan = scan_branch(&lg, &c, &set(&[], 3));
        assert_eq!(scan.universal_candidate, Some(0));
    }

    #[test]
    fn scan_reports_candidate_graph_mismatch() {
        let g = Graph::complete(3);
        let edge01 = [g.slot(0, 1).unwrap(), g.slot(1, 0).unwrap()];
        let lg = crate::local::LocalGraph::from_vertices_filtered(&g, &[0, 1, 2], |s| {
            !edge01.contains(&s)
        });
        let c = set(&[0, 1, 2], 3);
        let scan = scan_branch(&lg, &c, &set(&[], 3));
        assert!(!scan.candidate_matches_graph);
    }

    #[test]
    fn scan_of_empty_sets() {
        let g = Graph::complete(3);
        let lg = crate::local::LocalGraph::from_vertices(&g, &[0, 1, 2]);
        let scan = scan_branch(&lg, &set(&[], 3), &set(&[], 3));
        assert_eq!(scan.pivot, usize::MAX);
        assert_eq!(scan.min_candidate_gdegree, 0);
    }

    #[test]
    fn plex_condition_levels() {
        let g = Graph::complete(5);
        let lg = crate::local::LocalGraph::from_vertices(&g, &[0, 1, 2, 3, 4]);
        let c = set(&[0, 1, 2, 3, 4], 5);
        let scan = scan_branch(&lg, &c, &set(&[], 5));
        // A clique is a 1-plex.
        assert!(plex_condition(&scan, c.len(), 1));
        assert!(plex_condition(&scan, c.len(), 3));
        assert!(!plex_condition(&scan, c.len(), 0));
    }

    #[test]
    fn plex_condition_for_c5_needs_t3() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let lg = crate::local::LocalGraph::from_vertices(&g, &[0, 1, 2, 3, 4]);
        let c = set(&[0, 1, 2, 3, 4], 5);
        let scan = scan_branch(&lg, &c, &set(&[], 5));
        assert!(!plex_condition(&scan, c.len(), 2));
        assert!(plex_condition(&scan, c.len(), 3));
    }

    #[test]
    fn plex_condition_rejected_when_candidate_edges_removed() {
        let g = Graph::complete(4);
        let edge01 = [g.slot(0, 1).unwrap(), g.slot(1, 0).unwrap()];
        let lg = crate::local::LocalGraph::from_vertices_filtered(&g, &[0, 1, 2, 3], |s| {
            !edge01.contains(&s)
        });
        let c = set(&[0, 1, 2, 3], 4);
        let scan = scan_branch(&lg, &c, &set(&[], 4));
        assert!(!plex_condition(&scan, c.len(), 3));
    }
}
