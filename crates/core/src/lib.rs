//! # hbbmc — Maximal Clique Enumeration with Hybrid Branching and Early Termination
//!
//! A from-scratch Rust implementation of the algorithms in *"Maximal Clique
//! Enumeration with Hybrid Branching and Early Termination"* (Wang, Yu & Long,
//! ICDE 2025), together with every baseline the paper compares against.
//!
//! ## What's inside
//!
//! * **`VBBMC`** — the vertex-oriented Bron–Kerbosch branch-and-bound family:
//!   plain BK, `BK_Pivot` (Tomita), `BK_Ref` (refined pivoting), `BK_Degen`
//!   (degeneracy ordering), `BK_Degree`, `BK_Rcd` and `BK_Fac`, each available
//!   with the graph-reduction preprocessing (`RRef`, `RDegen`, `RRcd`, `RFac`).
//! * **`EBBMC`** — edge-oriented BK branching with the truss-based edge
//!   ordering (Eq. 2 / Eq. 3 of the paper).
//! * **`HBBMC`** — the hybrid framework: edge-oriented branching at the root
//!   (bounding every sub-branch by the truss parameter τ < δ), classic-pivot
//!   vertex-oriented branching below, with worst-case time
//!   `O(δm + τm·3^{τ/3})`.
//! * **Early termination** — branches whose candidate graph is a t-plex
//!   (t ≤ 3) with an empty exclusion set emit their maximal cliques directly
//!   from the complement's paths and cycles (Algorithms 5–8).
//! * **Graph reduction** — simplicial vertices are reported and removed up
//!   front, acting as permanent exclusion members afterwards.
//! * A **parallel driver** over independent root branches, a **reference
//!   enumerator** and **verification utilities** for testing.
//!
//! ## Quick start
//!
//! ```
//! use hbbmc::{enumerate_collect, SolverConfig};
//! use mce_graph::Graph;
//!
//! // Two triangles sharing the edge (0, 2).
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]).unwrap();
//! let (cliques, stats) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
//! assert_eq!(cliques, vec![vec![0, 1, 2], vec![0, 2, 3]]);
//! assert_eq!(stats.maximal_cliques, 2);
//! ```
//!
//! Named presets ([`SolverConfig::hbbmc_pp`], [`SolverConfig::r_degen`], …)
//! map one-to-one onto the algorithm names used in the paper's tables; the
//! `mce-bench` crate uses them to regenerate every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod config;
pub mod early_term;
pub mod kclique;
#[cfg(test)]
mod kplex;
pub mod local;
pub mod maxclique;
pub mod naive;
pub mod parallel;
pub mod pivot;
mod pool;
pub mod query;
pub mod reduction;
pub mod report;
mod scratch;
pub mod solver;
pub mod stats;
pub mod verify;

pub use budget::{Budget, CancelToken, Outcome, TruncationReason};
pub use config::{ConfigError, InitialBranching, PivotStrategy, RecursionStrategy, SolverConfig};
pub use kclique::{
    count_k_cliques, for_each_k_clique, for_each_k_clique_budgeted, k_clique_census, list_k_cliques,
};
pub use maxclique::{
    maximum_clique_bb, maximum_clique_bb_with_state, MaxCliqueState, TerminatingBound,
};
pub use naive::{naive_count, naive_maximal_cliques, naive_maximal_cliques_budgeted};
pub use parallel::{
    par_count_maximal_cliques, par_enumerate_ordered, par_enumerate_ordered_budgeted, EngineError,
    ProgressCounters,
};
pub use query::{run_query, ExecSession, Query, QueryError, QueryResult, QuerySpec, QueryValue};
pub use report::{
    CallbackReporter, CliqueLineFormat, CliqueReporter, CollectReporter, CountReporter,
    MaximumCliqueReporter, MinSizeFilter, SizeHistogramReporter, TopKReporter, WriterReporter,
};
pub use solver::{count_maximal_cliques, enumerate, enumerate_collect, EnumerationState, Solver};
pub use stats::EnumerationStats;
pub use verify::{
    is_maximal_clique, matches_reference, matches_reference_budgeted, verify_cliques,
    ReferenceError, Violation,
};

// Re-export the substrate types users need to build inputs.
pub use mce_graph::{Graph, GraphBuilder, GraphStats, VertexId};
