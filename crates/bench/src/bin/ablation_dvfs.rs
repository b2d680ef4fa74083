//! Ablation: how much of the inner engine's gain comes from the DVFS
//! subspace **F** vs early exits alone. For each hardware setting, every
//! Pareto placement found by the IOE is re-evaluated at fixed maximum
//! clocks and compared against its searched DVFS pairing.

use hadas::{DynamicModel, Hadas};
use hadas_bench::{all_targets, bench_env};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct DvfsAblation {
    hardware: String,
    mean_gain_exits_only: f64,
    mean_gain_with_dvfs: f64,
    dvfs_extra_energy_cut: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = bench_env!().scaled_config();
    println!("ABLATION — DVFS contribution per hardware setting");
    println!(
        "{:<24} {:>16} {:>16} {:>16}",
        "Hardware", "gain exits-only", "gain with DVFS", "DVFS extra cut"
    );
    println!("{}", "-".repeat(76));
    let mut rows = Vec::new();
    for target in all_targets() {
        let hadas = Hadas::for_target(target);
        let subnet = hadas.space().decode(&hadas_space::baselines::baseline_genome(4))?;
        let ioe = hadas.run_ioe(&subnet, &cfg, 0xDF5)?;
        let device = hadas.device();
        let mut sum_exits = 0.0;
        let mut sum_dvfs = 0.0;
        let mut extra = 0.0;
        let n = ioe.pareto.len().max(1);
        for s in &ioe.pareto {
            let at_max =
                DynamicModel::new(subnet.clone(), s.placement.clone(), device.default_dvfs())
                    .evaluate(hadas.accuracy(), device, cfg.gamma, cfg.use_dissimilarity)?;
            sum_exits += at_max.fitness.energy_gain;
            sum_dvfs += s.fitness.energy_gain;
            extra += 1.0 - s.fitness.energy_mj / at_max.fitness.energy_mj;
        }
        let row = DvfsAblation {
            hardware: target.name().to_string(),
            mean_gain_exits_only: sum_exits / n as f64,
            mean_gain_with_dvfs: sum_dvfs / n as f64,
            dvfs_extra_energy_cut: extra / n as f64,
        };
        println!(
            "{:<24} {:>15.0}% {:>15.0}% {:>15.0}%",
            row.hardware,
            row.mean_gain_exits_only * 100.0,
            row.mean_gain_with_dvfs * 100.0,
            row.dvfs_extra_energy_cut * 100.0
        );
        rows.push(row);
    }
    println!();
    println!("DVFS adds a consistent extra energy cut on top of early exits (paper Table III: EEx vs EEx_DVFS columns)");
    bench_env!().write_json("ablation_dvfs", &rows)?;
    Ok(())
}
