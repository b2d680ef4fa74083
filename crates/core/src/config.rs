use crate::HadasError;
use serde::{Deserialize, Serialize};

/// Population size and evaluation budget of one evolutionary engine.
///
/// The paper expresses budgets as `#iterations = G × P` — 450 for the OOE
/// and 3500 for the IOE in its experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineBudget {
    /// Population size `P`.
    pub population: usize,
    /// Total evaluations `G × P`.
    pub iterations: usize,
}

impl EngineBudget {
    /// Creates a budget.
    pub fn new(population: usize, iterations: usize) -> Self {
        EngineBudget { population, iterations }
    }

    /// Number of generations this budget affords (at least 1).
    pub fn generations(&self) -> usize {
        (self.iterations / self.population).max(1)
    }
}

/// Configuration of a full HADAS run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HadasConfig {
    /// Master seed; the whole bi-level search is deterministic given it.
    pub seed: u64,
    /// Outer (backbone) engine budget.
    pub ooe: EngineBudget,
    /// Inner (exits × DVFS) engine budget, spent per selected backbone.
    pub ioe: EngineBudget,
    /// Fraction of each OOE generation promoted to the IOE stage (the
    /// early-selection pruning `P' ⊂ P`).
    pub prune_fraction: f64,
    /// Trade-off exponent γ of the `dissimᵞ` regularizer (eq. (6)).
    pub gamma: f64,
    /// Whether the dissimilarity regularizer is applied at all (the
    /// Fig. 7 ablation disables it).
    pub use_dissimilarity: bool,
}

impl HadasConfig {
    /// The paper's experimental budgets: OOE 450 iterations, IOE 3500.
    pub fn paper() -> Self {
        HadasConfig {
            seed: 0x44415445, // "DATE"
            ooe: EngineBudget::new(30, 450),
            ioe: EngineBudget::new(50, 3500),
            prune_fraction: 0.25,
            gamma: 1.0,
            use_dissimilarity: true,
        }
    }

    /// The paper's configuration at seconds-scale budgets (OOE 12/60,
    /// IOE 16/96): the `quick` scale of the CLI and the bench binaries.
    pub fn quick() -> Self {
        HadasConfig {
            ooe: EngineBudget::new(12, 60),
            ioe: EngineBudget::new(16, 96),
            ..Self::paper()
        }
    }

    /// The paper's configuration at minutes-scale budgets (OOE 16/128,
    /// IOE 24/240) that still preserve its shapes: the `mid` scale.
    pub fn mid() -> Self {
        HadasConfig {
            ooe: EngineBudget::new(16, 128),
            ioe: EngineBudget::new(24, 240),
            ..Self::paper()
        }
    }

    /// A reduced-budget configuration that preserves the paper's shape
    /// while finishing quickly — used by examples and integration tests.
    pub fn smoke_test() -> Self {
        HadasConfig {
            seed: 7,
            ooe: EngineBudget::new(10, 40),
            ioe: EngineBudget::new(12, 60),
            prune_fraction: 0.3,
            gamma: 1.0,
            use_dissimilarity: true,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the dissimilarity settings (for the Fig. 7 ablation).
    pub fn with_dissimilarity(mut self, enabled: bool, gamma: f64) -> Self {
        self.use_dissimilarity = enabled;
        self.gamma = gamma;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for degenerate budgets or an
    /// out-of-range prune fraction.
    pub fn validate(&self) -> Result<(), HadasError> {
        if self.ooe.population < 2 || self.ioe.population < 2 {
            return Err(HadasError::InvalidConfig("populations must be at least 2".into()));
        }
        if self.ooe.iterations < self.ooe.population || self.ioe.iterations < self.ioe.population {
            return Err(HadasError::InvalidConfig(
                "budgets must cover at least one generation".into(),
            ));
        }
        if !(0.0 < self.prune_fraction && self.prune_fraction <= 1.0) {
            return Err(HadasError::InvalidConfig(format!(
                "prune fraction {} outside (0, 1]",
                self.prune_fraction
            )));
        }
        if self.gamma < 0.0 || !self.gamma.is_finite() {
            return Err(HadasError::InvalidConfig(format!("gamma {} must be ≥ 0", self.gamma)));
        }
        Ok(())
    }
}

impl Default for HadasConfig {
    fn default() -> Self {
        HadasConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budgets_match_section_v() {
        let cfg = HadasConfig::paper();
        assert_eq!(cfg.ooe.iterations, 450);
        assert_eq!(cfg.ioe.iterations, 3500);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn generations_derive_from_budget() {
        let b = EngineBudget::new(50, 3500);
        assert_eq!(b.generations(), 70);
        assert_eq!(EngineBudget::new(10, 5).generations(), 1);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut cfg = HadasConfig::smoke_test();
        cfg.prune_fraction = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = HadasConfig::smoke_test();
        cfg.ooe.population = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = HadasConfig::smoke_test();
        cfg.gamma = f64::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let cfg = HadasConfig::smoke_test().with_seed(99).with_dissimilarity(false, 0.0);
        assert_eq!(cfg.seed, 99);
        assert!(!cfg.use_dissimilarity);
    }
}
