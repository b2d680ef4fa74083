use hadas::{DynamicFitness, Hadas, HadasError, OoeOutcome};
use hadas_exits::ExitPlacement;
use hadas_hw::{CostReport, DvfsSetting};
use hadas_space::Subnet;

/// One deployable configuration: a backbone with exits, a DVFS setting,
/// and everything precomputed for per-arrival serving (capability
/// thresholds and cumulative exit costs).
#[derive(Debug, Clone)]
pub struct OperatingMode {
    /// Human-readable name ("performance", "eco", ...).
    pub name: String,
    subnet: Subnet,
    placement: ExitPlacement,
    dvfs: DvfsSetting,
    exit_thresholds: Vec<f64>,
    final_threshold: f64,
    exit_costs: Vec<CostReport>,
    full_cost: CostReport,
    expected: DynamicFitness,
}

/// Outcome of serving one arrival in a mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOutcome {
    /// Cost actually paid.
    pub cost: CostReport,
    /// Whether the prediction was correct.
    pub correct: bool,
    /// Exit index taken (`None` = ran to the final classifier).
    pub exit: Option<usize>,
}

impl OperatingMode {
    /// Precomputes a mode from a joint-space point.
    ///
    /// # Errors
    ///
    /// Propagates hardware errors for invalid settings.
    pub fn from_model(
        hadas: &Hadas,
        name: impl Into<String>,
        subnet: Subnet,
        placement: ExitPlacement,
        dvfs: DvfsSetting,
    ) -> Result<Self, HadasError> {
        let accuracy = hadas.accuracy();
        let eval = hadas::DynamicModel::new(subnet.clone(), placement.clone(), dvfs).evaluate(
            accuracy,
            hadas.device(),
            1.0,
            true,
        )?;
        let exit_thresholds: Vec<f64> =
            eval.exit_fractions.iter().map(|&n| accuracy.difficulty().quantile(n)).collect();
        let final_threshold = accuracy.final_threshold(&subnet);
        Ok(OperatingMode {
            name: name.into(),
            subnet,
            placement,
            dvfs,
            exit_thresholds,
            final_threshold,
            exit_costs: eval.exit_costs,
            full_cost: eval.full_cost,
            expected: eval.fitness,
        })
    }

    /// The backbone this mode deploys.
    pub fn subnet(&self) -> &Subnet {
        &self.subnet
    }

    /// The exit placement.
    pub fn placement(&self) -> &ExitPlacement {
        &self.placement
    }

    /// The pinned DVFS setting.
    pub fn dvfs(&self) -> &DvfsSetting {
        &self.dvfs
    }

    /// The design-time expected fitness of this mode.
    pub fn expected(&self) -> &DynamicFitness {
        &self.expected
    }

    /// Serves one input of the given difficulty under the ideal mapping
    /// policy: first capable exit wins; incapable inputs run the full
    /// model and are correct only if the final classifier covers them.
    pub fn serve(&self, difficulty: f64) -> ServeOutcome {
        for (k, &t) in self.exit_thresholds.iter().enumerate() {
            if difficulty <= t {
                return ServeOutcome { cost: self.exit_costs[k], correct: true, exit: Some(k) };
            }
        }
        ServeOutcome {
            cost: self.full_cost,
            correct: difficulty <= self.final_threshold,
            exit: None,
        }
    }

    /// Serves one input with the exit depth capped at head `max_exit`
    /// (0-based): inputs a capable exit at or above the cap would have
    /// taken behave as in [`OperatingMode::serve`]; everything else is
    /// **forced out** at the deepest allowed head — cheap, bounded
    /// latency, but incorrect for inputs beyond that head's capability.
    ///
    /// This is the brownout `ForceEarlyExit` tier's accuracy-for-latency
    /// trade: the serve cost becomes bounded by `exit_costs[cap]` instead
    /// of the full backbone. A mode without exits falls back to
    /// [`OperatingMode::serve`] (there is nothing to cap).
    pub fn serve_capped(&self, difficulty: f64, max_exit: usize) -> ServeOutcome {
        if self.exit_costs.is_empty() {
            return self.serve(difficulty);
        }
        let cap = max_exit.min(self.exit_costs.len() - 1);
        for (k, &t) in self.exit_thresholds.iter().enumerate().take(cap + 1) {
            if difficulty <= t {
                return ServeOutcome { cost: self.exit_costs[k], correct: true, exit: Some(k) };
            }
        }
        ServeOutcome { cost: self.exit_costs[cap], correct: false, exit: Some(cap) }
    }
}

/// The mode actually deployable under a thermal cap, starting from the
/// policy's `choice`: the first mode at or below (more frugal than)
/// `choice` whose pinned compute clock fits under the cap; if none fits,
/// the mode with the slowest compute clock — the closest deployable point
/// to what the SoC's governor forces. Shared by the closed-loop
/// [`crate::RuntimeSimulator`] and the open-loop `hadas-serve` engine so
/// both enforce identical throttle semantics.
pub fn enforce_thermal_cap(
    ladder: &hadas_hw::DvfsLadder,
    modes: &[OperatingMode],
    choice: usize,
    cap: f64,
) -> usize {
    if cap >= 1.0 || modes.is_empty() {
        return choice;
    }
    for (i, mode) in modes.iter().enumerate().skip(choice.min(modes.len() - 1)) {
        if ladder.respects_thermal_cap(mode.dvfs(), cap) {
            return i;
        }
    }
    (0..modes.len())
        .min_by(|&a, &b| {
            ladder
                .compute_fraction(modes[a].dvfs())
                .total_cmp(&ladder.compute_fraction(modes[b].dvfs()))
        })
        .unwrap_or(choice)
}

/// Extracts `k` evenly spread operating modes from a joint-search outcome,
/// ordered most-accurate first ("performance") down to most-frugal
/// ("eco"). Modes come from the Pareto set over (accuracy, −energy).
///
/// # Errors
///
/// Returns [`HadasError::InvalidConfig`] if the outcome has no Pareto
/// models, or propagates mode-construction errors.
pub fn modes_from_pareto(
    hadas: &Hadas,
    outcome: &OoeOutcome,
    k: usize,
) -> Result<Vec<OperatingMode>, HadasError> {
    let mut models = outcome.pareto_models();
    if models.is_empty() {
        return Err(HadasError::InvalidConfig("no pareto models to deploy".into()));
    }
    models.sort_by(|a, b| b.dynamic.accuracy_pct.total_cmp(&a.dynamic.accuracy_pct));
    let k = k.clamp(1, models.len());
    let mut modes = Vec::with_capacity(k);
    for i in 0..k {
        // Evenly spaced indices across the sorted front.
        let idx = if k == 1 { 0 } else { i * (models.len() - 1) / (k - 1) };
        let m = &models[idx];
        let name = match (i, k) {
            (0, _) => "performance".to_string(),
            (i, k) if i + 1 == k => "eco".to_string(),
            _ => format!("balanced{i}"),
        };
        modes.push(OperatingMode::from_model(
            hadas,
            name,
            m.subnet.clone(),
            m.placement.clone(),
            m.dvfs,
        )?);
    }
    Ok(modes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas::HadasConfig;
    use hadas_hw::HwTarget;

    fn fixture() -> (Hadas, Vec<OperatingMode>) {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let outcome = hadas.run(&HadasConfig::smoke_test()).unwrap();
        let modes = modes_from_pareto(&hadas, &outcome, 3).unwrap();
        (hadas, modes)
    }

    #[test]
    fn modes_span_the_front() {
        let (_, modes) = fixture();
        assert_eq!(modes.len(), 3);
        assert_eq!(modes[0].name, "performance");
        assert_eq!(modes[2].name, "eco");
        assert!(
            modes[0].expected().accuracy_pct >= modes[2].expected().accuracy_pct,
            "performance must be at least as accurate as eco"
        );
    }

    #[test]
    fn serving_easy_inputs_exits_early_and_cheap() {
        let (_, modes) = fixture();
        let mode = &modes[0];
        let easy = mode.serve(0.02);
        let hard = mode.serve(0.98);
        assert!(easy.correct);
        assert!(easy.exit.is_some(), "easy inputs should exit early");
        assert!(easy.cost.energy_j < hard.cost.energy_j);
        assert!(hard.exit.is_none(), "hard inputs run the full model");
    }

    #[test]
    fn capped_serving_bounds_cost_and_sacrifices_hard_inputs() {
        let (_, modes) = fixture();
        for mode in &modes {
            let exits = mode.placement().len();
            for d in [0.0, 0.3, 0.6, 0.9, 0.99] {
                let capped = mode.serve_capped(d, 0);
                let free = mode.serve(d);
                assert!(
                    capped.cost.latency_s <= free.cost.latency_s + 1e-12,
                    "the cap may only cheapen serving"
                );
                if exits > 0 {
                    assert!(capped.exit.is_some(), "capped serving never runs the full backbone");
                    assert!(capped.exit.unwrap_or(usize::MAX) == 0, "cap 0 forces the first head");
                }
                // A cap at (or past) the deepest head changes nothing for
                // inputs an exit would have taken anyway.
                if free.exit.is_some() {
                    assert_eq!(mode.serve_capped(d, exits.saturating_sub(1)), free);
                }
            }
            let hard = mode.serve_capped(0.999, 0);
            if exits > 0 {
                assert!(!hard.correct, "forced-out hard inputs are sacrificed");
            }
        }
    }

    #[test]
    fn serve_cost_is_bounded_by_full_cost() {
        let (_, modes) = fixture();
        for mode in &modes {
            for d in [0.0, 0.2, 0.4, 0.6, 0.8, 0.99] {
                let s = mode.serve(d);
                assert!(s.cost.energy_j <= mode.full_cost.energy_j + 1e-12);
                assert!(s.cost.energy_j > 0.0);
            }
        }
    }
}
