//! Serialisable experiment records: the paper views in `hadas-bench`
//! export their rows and series as JSON so figures can be re-plotted
//! outside the harness.

use crate::{DynamicFitness, StaticFitness};
use serde::{Deserialize, Serialize};

/// One scatter point of Fig. 5 (top or bottom).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// X coordinate (energy mJ for the top row, energy gain for the bottom).
    pub x: f64,
    /// Y coordinate (accuracy % for the top row, mean `N_i` for the bottom).
    pub y: f64,
    /// Whether the point lies on its run's Pareto front.
    pub pareto: bool,
}

/// One hardware setting's worth of Fig. 5 data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Panel {
    /// Hardware setting name.
    pub hardware: String,
    /// Explored points by HADAS.
    pub hadas: Vec<ScatterPoint>,
    /// Baseline points (a0..a6 for the top row; optimized-baseline IOE
    /// points for the bottom row).
    pub baselines: Vec<ScatterPoint>,
}

/// One bar pair of Fig. 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Bar {
    /// Hardware setting name.
    pub hardware: String,
    /// Hypervolume of the HADAS front.
    pub hadas_hv: f64,
    /// Hypervolume of the optimized-baseline front.
    pub baseline_hv: f64,
    /// Fraction of HADAS solutions dominating a baseline solution.
    pub hadas_rod: f64,
    /// Fraction of baseline solutions dominating a HADAS solution.
    pub baseline_rod: f64,
}

/// One row of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Model name (`AttentiveNAS_a0`, `HADAS_b1`, ...).
    pub model: String,
    /// Static accuracy (%).
    pub baseline_acc: f64,
    /// Early-exit (ideal mapping) accuracy (%).
    pub eex_acc: f64,
    /// Static energy at default clocks (mJ).
    pub baseline_energy_mj: f64,
    /// Dynamic energy with early exits at default clocks (mJ).
    pub eex_energy_mj: f64,
    /// Dynamic energy with early exits and optimised DVFS (mJ).
    pub eex_dvfs_energy_mj: f64,
}

/// A static-vs-dynamic record used by the Fig. 1 motivation bars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Bars {
    /// Model name.
    pub model: String,
    /// Static fitness.
    pub static_fitness: StaticFitness,
    /// Dynamic fitness with exits only (default DVFS).
    pub dyn_fitness: DynamicFitness,
    /// Dynamic fitness with exits and optimised DVFS.
    pub dyn_hw_fitness: DynamicFitness,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_points_serialize_compactly() {
        let p = ScatterPoint { x: 1.0, y: 2.0, pareto: true };
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"pareto\":true"));
    }
}
