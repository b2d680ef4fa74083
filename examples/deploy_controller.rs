//! Deployment scenario: take a searched dynamic model and simulate serving
//! a stream of inputs with two runtime controllers — the ideal oracle the
//! paper optimises under, and a deployable entropy-threshold controller —
//! then compare realised exit mix, accuracy, and energy.
//!
//! ```sh
//! cargo run --example deploy_controller
//! ```

use hadas_suite::core::{
    Controller, DynamicModel, EntropyController, ExitDecision, Hadas, HadasConfig, IdealController,
};
use hadas_suite::dataset::DifficultyDistribution;
use hadas_suite::hw::{CostReport, HwTarget};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let config = HadasConfig::smoke_test();

    // Search once, deploy the most energy-efficient Pareto model.
    let outcome = hadas.run(&config)?;
    let model = outcome
        .pareto_models()
        .into_iter()
        .max_by(|a, b| a.dynamic.energy_gain.total_cmp(&b.dynamic.energy_gain))
        .expect("search yields models");
    println!(
        "deploying: {} exits at {:?}, dynamic accuracy {:.2}%, expected {:.1} mJ/inference",
        model.placement.len(),
        model.placement.positions(),
        model.dynamic.accuracy_pct,
        model.dynamic.energy_mj
    );

    // Per-exit capability thresholds drive both the oracle and the
    // entropy simulation.
    let thresholds: Vec<f64> = model
        .placement
        .positions()
        .iter()
        .map(|&p| {
            let n = hadas.accuracy().exit_fraction(&model.subnet, p);
            hadas.accuracy().difficulty().quantile(n)
        })
        .collect();
    let oracle = IdealController::new(thresholds.clone());
    // Entropy thresholds: a moderately conservative uniform setting.
    let entropy = EntropyController::uniform(model.placement.len(), 0.55);

    // The energy of exiting at each exit (prefix + heads) and of running
    // the full model.
    let eval = DynamicModel::new(model.subnet.clone(), model.placement.clone(), model.dvfs)
        .evaluate(hadas.accuracy(), hadas.device(), config.gamma, config.use_dissimilarity)?;
    let exit_energy: Vec<f64> = eval.exit_costs.iter().map(CostReport::energy_mj).collect();
    let full_energy = eval.full_cost.energy_mj();

    // Serve a synthetic input stream.
    let mut rng = StdRng::seed_from_u64(2024);
    let difficulty = DifficultyDistribution::default();
    let n_inputs = 20_000usize;
    for (name, controller) in
        [("ideal oracle", &oracle as &dyn Controller), ("entropy threshold", &entropy)]
    {
        let mut exits = vec![0usize; model.placement.len() + 1];
        let mut correct = 0usize;
        let mut energy = 0.0f64;
        for _ in 0..n_inputs {
            let d = difficulty.sample(&mut rng);
            // Simulated per-exit entropies: confident (low) once the exit's
            // capability covers the sample difficulty, plus noise.
            let entropies: Vec<f64> = thresholds
                .iter()
                .map(|&t| {
                    let margin = t - d;
                    (1.2 - 2.0 * margin).clamp(0.05, 4.0) * rng.gen_range(0.85..1.15)
                })
                .collect();
            match controller.decide(d, &entropies) {
                ExitDecision::Exit(k) => {
                    exits[k] += 1;
                    energy += exit_energy[k];
                    // Correct iff the exit was actually capable.
                    if d <= thresholds[k] {
                        correct += 1;
                    }
                }
                ExitDecision::Final => {
                    exits[model.placement.len()] += 1;
                    energy += full_energy;
                    if d <= hadas.accuracy().final_threshold(&model.subnet) {
                        correct += 1;
                    }
                }
            }
        }
        println!();
        println!("{name}:");
        println!(
            "  accuracy {:.2}%  energy {:.1} mJ/inference",
            correct as f64 / n_inputs as f64 * 100.0,
            energy / n_inputs as f64
        );
        let mix: Vec<String> = exits
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let label = if k < model.placement.len() {
                    format!("exit{}", k + 1)
                } else {
                    "final".to_string()
                };
                format!("{label} {:.0}%", c as f64 / n_inputs as f64 * 100.0)
            })
            .collect();
        println!("  exit mix: {}", mix.join(", "));
    }
    println!();
    println!("the oracle bounds what any deployable controller can achieve; the");
    println!("entropy controller trades a little accuracy/energy for being real.");
    Ok(())
}
