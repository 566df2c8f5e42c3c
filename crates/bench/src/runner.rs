//! Measurement helpers: run one algorithm on one graph and collect the numbers
//! the paper reports (seconds, `#Calls`, ET ratio, clique count).

use std::time::Instant;

use hbbmc::{CountReporter, EnumerationStats, Solver, SolverConfig};
use mce_graph::Graph;

/// One measured run of an algorithm on a graph.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall-clock time of the complete run (ordering + reduction + enumeration).
    pub seconds: f64,
    /// Number of maximal cliques reported.
    pub cliques: u64,
    /// Full statistics of the run.
    pub stats: EnumerationStats,
}

/// Runs `config` on `g` once and collects a [`Measurement`].
pub fn measure(g: &Graph, config: &SolverConfig) -> Measurement {
    let solver = Solver::new(g, *config).expect("invalid solver configuration");
    let mut reporter = CountReporter::new();
    let start = Instant::now();
    let stats = solver.run(&mut reporter);
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        seconds,
        cliques: reporter.count,
        stats,
    }
}

/// Formats a large count with the K / M / B suffixes used by the paper.
pub fn format_count(value: u64) -> String {
    const K: f64 = 1_000.0;
    let v = value as f64;
    if v >= K * K * K {
        format!("{:.2}B", v / (K * K * K))
    } else if v >= K * K {
        format!("{:.2}M", v / (K * K))
    } else if v >= K {
        format!("{:.0}K", v / K)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_gen::moon_moser;

    #[test]
    fn measure_counts_cliques_and_time() {
        let g = moon_moser(4);
        let m = measure(&g, &SolverConfig::hbbmc_pp());
        assert_eq!(m.cliques, 81);
        assert_eq!(m.stats.maximal_cliques, 81);
        assert!(m.seconds >= 0.0);
        assert!(m.seconds < 10.0);
    }

    #[test]
    fn different_algorithms_agree_on_counts() {
        let g = mce_gen::erdos_renyi(300, 2_500, 7);
        let reference = measure(&g, &SolverConfig::r_degen()).cliques;
        for cfg in [
            SolverConfig::hbbmc_pp(),
            SolverConfig::hbbmc_plus(),
            SolverConfig::r_rcd(),
            SolverConfig::r_fac(),
            SolverConfig::r_ref(),
        ] {
            assert_eq!(measure(&g, &cfg).cliques, reference);
        }
    }

    #[test]
    fn count_formatting_matches_paper_style() {
        assert_eq!(format_count(537), "537");
        assert_eq!(format_count(365_000), "365K");
        assert_eq!(format_count(2_150_000), "2.15M");
        assert_eq!(format_count(1_540_000_000), "1.54B");
    }
}
