//! Umbrella crate for the HBBMC reproduction workspace.
//!
//! This crate only hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). The actual library code lives in:
//!
//! * [`mce_graph`] — graph substrate (CSR graphs, degeneracy, truss ordering,
//!   I/O),
//! * [`mce_gen`] — synthetic graph generators,
//! * [`hbbmc`] — the maximal clique enumeration frameworks (VBBMC, EBBMC,
//!   HBBMC) with early termination and graph reduction.
//!
//! # Quick start
//!
//! The three re-exports give one-stop access to the whole stack; this is the
//! `hbbmc` crate-level example driven through the umbrella:
//!
//! ```
//! use hbbmc_repro::hbbmc::{enumerate_collect, SolverConfig};
//! use hbbmc_repro::mce_graph::Graph;
//!
//! // Two triangles sharing the edge (0, 2).
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]).unwrap();
//! let (cliques, stats) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
//! assert_eq!(cliques, vec![vec![0, 1, 2], vec![0, 2, 3]]);
//! assert_eq!(stats.maximal_cliques, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hbbmc;
pub use mce_gen;
pub use mce_graph;

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_resolve_and_agree_on_the_quick_start_graph() {
        // Build through the re-exported substrate, generate through the
        // re-exported generators, solve through the re-exported core: the
        // three paths must interoperate on the same `Graph` type.
        let g = crate::mce_graph::Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])
            .unwrap();
        let (cliques, stats) =
            crate::hbbmc::enumerate_collect(&g, &crate::hbbmc::SolverConfig::hbbmc_pp());
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![0, 2, 3]]);
        assert_eq!(stats.maximal_cliques, 2);

        let mm = crate::mce_gen::moon_moser(3);
        let (count, _) =
            crate::hbbmc::count_maximal_cliques(&mm, &crate::hbbmc::SolverConfig::hbbmc_pp());
        assert_eq!(count, 27, "Moon–Moser k=3 has 3^3 maximal cliques");
    }
}
