//! Verification utilities for enumeration output.
//!
//! Used by the integration tests, the property tests and the examples to
//! check the three defining properties of a correct MCE result: every reported
//! set is a clique, every reported set is maximal, and the collection contains
//! no duplicates (completeness is checked against [`crate::naive`] on small
//! graphs).

use std::collections::HashSet;

use mce_graph::{Graph, VertexId};

use crate::budget::{Budget, TruncationReason};

/// A violation found while verifying an enumeration result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The set at this index is not a clique.
    NotAClique(usize),
    /// The set at this index is a clique but not maximal; the extra vertex
    /// proves it.
    NotMaximal(usize, VertexId),
    /// Two indices hold the same vertex set.
    Duplicate(usize, usize),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotAClique(i) => write!(f, "set #{i} is not a clique"),
            Violation::NotMaximal(i, v) => {
                write!(f, "set #{i} is not maximal (vertex {v} extends it)")
            }
            Violation::Duplicate(i, j) => write!(f, "sets #{i} and #{j} are identical"),
        }
    }
}

/// Finds a vertex adjacent to every member of `set`, if any.
pub fn find_extending_vertex(g: &Graph, set: &[VertexId]) -> Option<VertexId> {
    if set.is_empty() {
        return g.vertices().next();
    }
    // Intersect the neighbourhoods, starting from the smallest one.
    let pivot = *set.iter().min_by_key(|&&v| g.degree(v))?;
    g.neighbors(pivot)
        .iter()
        .copied()
        .find(|&cand| !set.contains(&cand) && set.iter().all(|&s| s == cand || g.has_edge(s, cand)))
}

/// Verifies that `cliques` are distinct maximal cliques of `g`.
///
/// Returns every violation found (empty vector = valid). Completeness is *not*
/// checked here; compare against [`crate::naive::naive_maximal_cliques`] for that.
pub fn verify_cliques(g: &Graph, cliques: &[Vec<VertexId>]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut seen: std::collections::HashMap<Vec<VertexId>, usize> =
        std::collections::HashMap::new();
    for (i, clique) in cliques.iter().enumerate() {
        if !g.is_clique(clique) || clique.is_empty() {
            violations.push(Violation::NotAClique(i));
            continue;
        }
        if let Some(v) = find_extending_vertex(g, clique) {
            violations.push(Violation::NotMaximal(i, v));
        }
        let mut key = clique.clone();
        key.sort_unstable();
        if let Some(&j) = seen.get(&key) {
            violations.push(Violation::Duplicate(j, i));
        } else {
            seen.insert(key, i);
        }
    }
    violations
}

/// Why a budgeted reference comparison could not be completed or failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReferenceError {
    /// The result differs from the reference; the message names the first
    /// difference.
    Mismatch(String),
    /// The reference enumeration's [`Budget`] tripped before completing, so
    /// completeness could not be decided.
    BudgetExhausted(TruncationReason),
}

impl std::fmt::Display for ReferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReferenceError::Mismatch(msg) => write!(f, "{msg}"),
            ReferenceError::BudgetExhausted(reason) => write!(
                f,
                "naive reference enumeration exhausted its budget ({reason}) before completing"
            ),
        }
    }
}

impl std::error::Error for ReferenceError {}

/// Compares an enumeration result against the reference enumerator. Both sides
/// are canonicalised, so order does not matter. Returns `Ok(())` or a message
/// describing the first difference.
pub fn matches_reference(g: &Graph, cliques: &[Vec<VertexId>]) -> Result<(), String> {
    match matches_reference_budgeted(g, cliques, &Budget::unlimited()) {
        Ok(()) => Ok(()),
        Err(ReferenceError::Mismatch(msg)) => Err(msg),
        Err(e @ ReferenceError::BudgetExhausted(_)) => {
            unreachable!("unlimited budget cannot trip: {e}")
        }
    }
}

/// [`matches_reference`] with the exponential reference enumeration bounded
/// by a shared [`Budget`]: when the budget trips before the reference run
/// completes, the comparison is abandoned with
/// [`ReferenceError::BudgetExhausted`] instead of running unboundedly.
pub fn matches_reference_budgeted(
    g: &Graph,
    cliques: &[Vec<VertexId>],
    budget: &Budget,
) -> Result<(), ReferenceError> {
    let mut got: Vec<Vec<VertexId>> = cliques
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.sort_unstable();
            c
        })
        .collect();
    got.sort();
    let want = crate::naive::naive_maximal_cliques_budgeted(g, budget)
        .map_err(ReferenceError::BudgetExhausted)?;
    if got == want {
        return Ok(());
    }
    let got_set: HashSet<&Vec<VertexId>> = got.iter().collect();
    let want_set: HashSet<&Vec<VertexId>> = want.iter().collect();
    if let Some(missing) = want.iter().find(|c| !got_set.contains(c)) {
        return Err(ReferenceError::Mismatch(format!(
            "missing maximal clique {missing:?} ({} vs {} expected)",
            got.len(),
            want.len()
        )));
    }
    if let Some(extra) = got.iter().find(|c| !want_set.contains(c)) {
        return Err(ReferenceError::Mismatch(format!(
            "extra clique {extra:?} ({} vs {} expected)",
            got.len(),
            want.len()
        )));
    }
    Err(ReferenceError::Mismatch(format!(
        "duplicate cliques reported ({} vs {} expected)",
        got.len(),
        want.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn extending_vertex_found() {
        let g = two_triangles();
        let v = find_extending_vertex(&g, &[0, 2]).unwrap();
        assert!(v == 1 || v == 3);
        assert_eq!(find_extending_vertex(&g, &[0, 1, 2]), None);
    }

    #[test]
    fn verify_accepts_correct_output() {
        let g = two_triangles();
        let cliques = vec![vec![0, 1, 2], vec![0, 2, 3]];
        assert!(verify_cliques(&g, &cliques).is_empty());
        assert!(matches_reference(&g, &cliques).is_ok());
    }

    #[test]
    fn verify_flags_non_clique_and_non_maximal_and_duplicates() {
        let g = two_triangles();
        let cliques = vec![vec![1, 3], vec![0, 2], vec![0, 1, 2], vec![2, 1, 0]];
        let violations = verify_cliques(&g, &cliques);
        assert!(violations.contains(&Violation::NotAClique(0)));
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::NotMaximal(1, _))));
        assert!(violations.contains(&Violation::Duplicate(2, 3)));
    }

    #[test]
    fn matches_reference_reports_missing_and_extra() {
        let g = two_triangles();
        let err = matches_reference(&g, &[vec![0, 1, 2]]).unwrap_err();
        assert!(err.contains("missing"));
        let err = matches_reference(&g, &[vec![0, 1, 2], vec![0, 2, 3], vec![0, 3]]).unwrap_err();
        assert!(err.contains("extra"));
    }

    #[test]
    fn budgeted_reference_check_reports_exhaustion() {
        let g = Graph::complete(8);
        let err = matches_reference_budgeted(&g, &[vec![0]], &Budget::steps(1)).unwrap_err();
        assert_eq!(
            err,
            ReferenceError::BudgetExhausted(TruncationReason::StepLimit)
        );
        assert!(err.to_string().contains("exhausted its budget"));
        // With enough budget the mismatch is reported as usual.
        let err = matches_reference_budgeted(&g, &[vec![0]], &Budget::unlimited()).unwrap_err();
        assert!(matches!(err, ReferenceError::Mismatch(_)));
    }

    #[test]
    fn violation_display() {
        assert!(Violation::NotAClique(3).to_string().contains("#3"));
        assert!(Violation::NotMaximal(1, 9).to_string().contains("9"));
        assert!(Violation::Duplicate(0, 2).to_string().contains("identical"));
    }
}
