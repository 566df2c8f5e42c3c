//! # mce-gen — synthetic graph generators for MCE workloads
//!
//! The paper evaluates on real-world graphs (Table I) and on synthetic graphs
//! drawn from the **Erdős–Rényi** and **Barabási–Albert** models (Figure 5 /
//! Appendix D). This crate implements both models plus a collection of
//! structured generators used for testing and for the surrogate datasets of
//! the benchmark harness:
//!
//! * [`erdos_renyi`] — `G(n, m)` uniform random graphs,
//! * [`barabasi_albert`] — preferential-attachment graphs,
//! * [`moon_moser`](moon_moser()) — the complete multipartite graphs `K_{3,3,…,3}` attaining
//!   the `3^{n/3}` maximal-clique bound,
//! * [`structured`] — paths, cycles, stars, complete bipartite and Turán graphs,
//! * [`plex`] — random t-plexes (dense graphs whose complement is a bounded
//!   degree structure),
//! * [`planted`] — overlapping planted communities, a clique-rich model that
//!   mimics the social-network datasets of Table I at laptop scale,
//! * [`hub`] — planted-hub graphs whose entire recursion tree hangs off one
//!   root branch, the stress case for the parallel engine.
//!
//! All generators are deterministic given a seed (`rand::rngs::StdRng`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ba;
pub mod er;
pub mod hub;
pub mod moon_moser;
pub mod planted;
pub mod plex;
pub mod presets;
pub mod structured;

pub use ba::barabasi_albert;
pub use er::{erdos_renyi, erdos_renyi_gnp};
pub use hub::{planted_hub, planted_hub_clique_count};
pub use moon_moser::moon_moser;
pub use planted::{planted_communities, PlantedConfig};
pub use plex::{random_t_plex, t_plex_from_complement};
pub use presets::{gen_preset_by_name, GenPreset, GEN_PRESETS};
pub use structured::{complete_bipartite, cycle_graph, path_graph, star_graph, turan_graph};
