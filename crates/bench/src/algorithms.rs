//! Named algorithm registry mapping the paper's algorithm names to solver
//! configurations.

use hbbmc::SolverConfig;

/// A named algorithm, exactly as it appears in the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Algorithm {
    /// The paper's name (e.g. `HBBMC++`, `RDegen`).
    pub name: &'static str,
    /// The solver configuration implementing it.
    pub config: SolverConfig,
}

/// Resolves each paper name through [`SolverConfig::preset_by_name`].
fn algorithms(names: &[&'static str]) -> Vec<Algorithm> {
    names
        .iter()
        .map(|&name| Algorithm {
            name,
            config: SolverConfig::preset_by_name(name).expect("preset exists"),
        })
        .collect()
}

/// The competitor set of Table II: `HBBMC++` against the four state-of-the-art
/// reduction-enhanced VBBMC baselines.
pub fn baseline_algorithms() -> Vec<Algorithm> {
    algorithms(&["HBBMC++", "RRef", "RDegen", "RRcd", "RFac"])
}

/// The ablation / hybrid-variant set of Table III.
pub fn ablation_algorithms() -> Vec<Algorithm> {
    algorithms(&["HBBMC++", "HBBMC+", "RDegen", "Ref++", "Rcd++", "Fac++"])
}

/// The edge-ordering comparison set of Table VI.
pub fn ordering_algorithms() -> Vec<Algorithm> {
    algorithms(&["HBBMC++", "VBBMC-dgn", "HBBMC-dgn", "HBBMC-mdg"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_set_has_five_entries_led_by_hbbmc() {
        let algos = baseline_algorithms();
        assert_eq!(algos.len(), 5);
        assert_eq!(algos[0].name, "HBBMC++");
    }

    #[test]
    fn table3_set_has_six_entries() {
        assert_eq!(ablation_algorithms().len(), 6);
    }

    #[test]
    fn table6_set_has_four_entries() {
        assert_eq!(ordering_algorithms().len(), 4);
    }
}
