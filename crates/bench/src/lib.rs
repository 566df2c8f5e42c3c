//! # mce-bench — experiment harness for the HBBMC reproduction
//!
//! This crate regenerates every table and figure of the paper's evaluation:
//!
//! | Experiment | Paper | Module / binary |
//! |------------|-------|-----------------|
//! | Dataset statistics | Table I | [`datasets`], `experiments table1` |
//! | Comparison with baselines | Table II | [`experiments::table2`] |
//! | Ablation + hybrid variants | Table III | [`experiments::table3`] |
//! | Hybrid switch depth | Table IV | [`experiments::table4`] |
//! | Early-termination level | Table V | [`experiments::table5`] |
//! | Truss-based edge ordering | Table VI | [`experiments::table6`] |
//! | Synthetic scalability / density | Fig. 5(a)–(d) | [`experiments::fig5_scalability`], [`experiments::fig5_density`] |
//! | CSR memory wall (not a paper table) | — | [`experiments::memwall`] |
//!
//! The paper's 16 real-world graphs (networkrepository.com, up to 106M edges)
//! are not redistributable and far exceed laptop scale, so each is replaced by
//! a **synthetic surrogate** (see [`datasets`]) chosen to preserve the regime
//! that drives the paper's conclusions: the edge density ρ, the gap between
//! the degeneracy δ and the truss parameter τ, and a clique-rich community
//! structure. `EXPERIMENTS.md` at the workspace root records paper-vs-measured
//! results for every experiment.
//!
//! Wall-clock timing of the commands users run (`mce enumerate`, `mce serve`)
//! and the per-layer breakdown live in the end-to-end benchmark under
//! `perfbench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod datasets;
pub mod experiments;
pub mod runner;
pub mod table;

pub use algorithms::{baseline_algorithms, Algorithm};
pub use datasets::{all_datasets, dataset_by_name, Dataset, DatasetSpec};
pub use runner::{measure, Measurement};
pub use table::Table;
