//! # mce-graph — graph substrate for maximal clique enumeration
//!
//! This crate provides every graph-side building block used by the `hbbmc`
//! crate (the reproduction of *"Maximal Clique Enumeration with Hybrid
//! Branching and Early Termination"*, ICDE 2025):
//!
//! * a compact **CSR (compressed sparse row) undirected graph** with sorted
//!   adjacency lists ([`Graph`]) and a forgiving [`GraphBuilder`] that
//!   deduplicates edges and drops self-loops. It is the one global graph
//!   type: every ordering, decomposition and statistic here, and every
//!   engine in `hbbmc`, reads `&Graph`,
//! * the versioned, checksummed **`.mcg` binary on-disk format** with a
//!   streamed `O(n + m)` loader for production-scale graphs ([`mcg`]; byte
//!   spec in `docs/FORMAT.md`),
//! * a fixed-capacity **bit set** with fused word-parallel kernels
//!   ([`bitset`]) and a contiguous **bit adjacency matrix** with row stride
//!   for the dense per-branch local graphs ([`adjmatrix`]),
//! * **degeneracy ordering / core decomposition** ([`degeneracy`]),
//! * **triangle counting and per-edge support** ([`triangles`]),
//! * **truss decomposition and the truss-based edge ordering** π_τ used by
//!   the edge-oriented branching framework ([`truss`]),
//! * alternative vertex/edge **orderings** used by the paper's baselines
//!   ([`ordering`]),
//! * simple **text I/O** for edge lists and DIMACS files ([`io`]),
//! * aggregate **graph statistics** (n, m, δ, τ, ρ and the paper's
//!   complexity condition) ([`stats`]).
//!
//! All structures are implemented from scratch on `std` only; identifiers are
//! `u32` ([`VertexId`]) to keep hot data small.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjmatrix;
pub mod bitset;
pub mod builder;
pub mod components;
pub mod degeneracy;
pub mod error;
pub mod graph;
pub mod hindex;
pub mod io;
pub mod mcg;
pub mod ordering;
pub mod stats;
pub mod triangles;
pub mod truss;

pub use adjmatrix::AdjMatrix;
pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use components::{connected_components, ConnectedComponents};
pub use degeneracy::{degeneracy_ordering, DegeneracyOrdering};
pub use error::GraphError;
pub use graph::{Graph, VertexId};
pub use hindex::h_index;
pub use io::GraphFormat;
pub use ordering::{EdgeOrderingKind, VertexOrderingKind};
pub use stats::GraphStats;
pub use triangles::{edge_supports, triangle_count};
pub use truss::{truss_ordering, TrussOrdering};
