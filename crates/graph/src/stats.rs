//! Aggregate graph statistics (the columns of the paper's Table I) and the
//! complexity-comparison condition of Theorem 2's remarks.

use crate::degeneracy::degeneracy_ordering;
use crate::graph::Graph;
use crate::hindex::h_index;
use crate::triangles::triangle_count;
use crate::truss::truss_ordering;

/// Dataset statistics in the shape of the paper's Table I.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices |V|.
    pub n: usize,
    /// Number of edges |E|.
    pub m: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Degeneracy δ.
    pub degeneracy: usize,
    /// Truss parameter τ (maximum peeling support of the truss-based edge ordering).
    pub tau: usize,
    /// h-index of the degree sequence (the bound used by `BK_Degree`).
    pub h_index: usize,
    /// Edge density ρ = m / n.
    pub rho: f64,
    /// Number of triangles.
    pub triangles: u64,
}

impl GraphStats {
    /// Computes all statistics of `g`.
    pub fn compute(g: &Graph) -> Self {
        let deg = degeneracy_ordering(g);
        let truss = truss_ordering(g);
        GraphStats {
            n: g.n(),
            m: g.m(),
            max_degree: g.max_degree(),
            degeneracy: deg.degeneracy,
            tau: truss.tau,
            h_index: h_index(g),
            rho: g.edge_density(),
            triangles: triangle_count(g),
        }
    }

    /// The threshold `max{3, τ + 3·lnρ / ln3}` of the paper's condition.
    pub fn condition_threshold(&self) -> f64 {
        if self.rho <= 0.0 {
            return 3.0;
        }
        let rhs = self.tau as f64 + 3.0 * self.rho.ln() / 3f64.ln();
        rhs.max(3.0)
    }

    /// Whether the graph satisfies `δ ≥ max{3, τ + 3·lnρ / ln3}`, i.e. whether
    /// HBBMC's worst-case bound `O(δm + τm·3^{τ/3})` is asymptotically no worse
    /// than the state-of-the-art `O(nδ·3^{δ/3})`.
    pub fn hbbmc_condition_holds(&self) -> bool {
        self.degeneracy as f64 >= self.condition_threshold() - 1e-12
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} δ={} τ={} h={} ρ={:.1} Δ={} triangles={} condition={}",
            self.n,
            self.m,
            self.degeneracy,
            self.tau,
            self.h_index,
            self.rho,
            self.max_degree,
            self.triangles,
            if self.hbbmc_condition_holds() {
                "holds"
            } else {
                "fails"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_complete_graph() {
        let g = Graph::complete(8);
        let s = GraphStats::compute(&g);
        assert_eq!(s.n, 8);
        assert_eq!(s.m, 28);
        assert_eq!(s.max_degree, 7);
        assert_eq!(s.degeneracy, 7);
        assert_eq!(s.tau, 6);
        assert_eq!(s.triangles, 56);
        assert!((s.rho - 3.5).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = Graph::empty(10);
        let s = GraphStats::compute(&g);
        assert_eq!(s.m, 0);
        assert_eq!(s.degeneracy, 0);
        assert_eq!(s.tau, 0);
        assert_eq!(s.rho, 0.0);
        assert!(!s.hbbmc_condition_holds());
        assert_eq!(s.condition_threshold(), 3.0);
    }

    #[test]
    fn h_index_between_degeneracy_and_max_degree() {
        let g = Graph::complete(8);
        let s = GraphStats::compute(&g);
        assert_eq!(s.h_index, 7);
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let s = GraphStats::compute(&g);
        assert!(s.degeneracy <= s.h_index && s.h_index <= s.max_degree);
    }

    #[test]
    fn condition_threshold_matches_formula() {
        let s = GraphStats {
            n: 100,
            m: 900,
            max_degree: 30,
            degeneracy: 20,
            tau: 10,
            h_index: 25,
            rho: 9.0,
            triangles: 0,
        };
        let expected = 10.0 + 3.0 * 9f64.ln() / 3f64.ln();
        assert!((s.condition_threshold() - expected).abs() < 1e-9);
        assert!(s.hbbmc_condition_holds());
    }

    #[test]
    fn condition_fails_when_degeneracy_small() {
        let s = GraphStats {
            n: 100,
            m: 900,
            max_degree: 30,
            degeneracy: 12,
            tau: 10,
            h_index: 20,
            rho: 9.0,
            triangles: 0,
        };
        assert!(!s.hbbmc_condition_holds());
    }

    #[test]
    fn display_mentions_condition() {
        let g = Graph::complete(10);
        let s = GraphStats::compute(&g);
        let text = s.to_string();
        assert!(text.contains("δ=9"));
        assert!(text.contains("holds") || text.contains("fails"));
    }
}
