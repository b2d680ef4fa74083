//! Regenerates **Fig. 5 (top row)**: the outer optimization engine's
//! explored backbones and static Pareto fronts against the AttentiveNAS
//! baselines a0..a6, on all four hardware settings.

use hadas::report::{Fig5Panel, ScatterPoint};
use hadas::Hadas;
use hadas_bench::{all_targets, baseline_subnets, bench_env};
use hadas_evo::dominates;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = bench_env!().scaled_config();
    let mut panels = Vec::new();
    for target in all_targets() {
        let hadas = Hadas::for_target(target);
        let outcome = hadas.run(&cfg)?;
        let axes = outcome.static_axes();
        let front: Vec<Vec<f64>> =
            outcome.static_pareto().iter().map(|b| b.fitness.to_plot_axes()).collect();

        let mut hadas_points = Vec::new();
        for a in &axes {
            hadas_points.push(ScatterPoint {
                x: -a[1], // energy mJ
                y: a[0],  // accuracy %
                pareto: front.contains(a),
            });
        }

        println!("== {} ==", target.name());
        println!("explored {} backbones; Pareto front of {} points", axes.len(), front.len());
        let mut baseline_points = Vec::new();
        let mut dominated = 0usize;
        for (name, subnet) in baseline_subnets(&hadas)? {
            let device = hadas.device();
            let cost = device.subnet_cost(&subnet, &device.default_dvfs())?;
            let acc = hadas.accuracy().backbone_accuracy(&subnet);
            let p = vec![acc, -cost.energy_mj()];
            let dominators: Vec<&Vec<f64>> = front.iter().filter(|f| dominates(f, &p)).collect();
            let is_dominated = !dominators.is_empty();
            dominated += usize::from(is_dominated);
            if is_dominated {
                // Report the energy cut at the same-or-better accuracy, as
                // the paper does for a6 (~33% on the AGX Volta GPU).
                let best_cut = dominators
                    .iter()
                    .map(|f| 1.0 - (-f[1]) / cost.energy_mj())
                    .fold(f64::MIN, f64::max);
                let best_acc_gain = dominators.iter().map(|f| f[0] - acc).fold(f64::MIN, f64::max);
                println!(
                    "  {name}: acc {acc:.2}%, {:.2} mJ — dominated (energy cut up to {:.0}%, acc gain up to {:.2}pp)",
                    cost.energy_mj(),
                    best_cut * 100.0,
                    best_acc_gain
                );
            } else {
                println!("  {name}: acc {acc:.2}%, {:.2} mJ — not dominated", cost.energy_mj());
            }
            baseline_points.push(ScatterPoint {
                x: cost.energy_mj(),
                y: acc,
                pareto: !is_dominated,
            });
        }
        println!("  dominated baselines: {dominated}/7");
        panels.push(Fig5Panel {
            hardware: target.name().to_string(),
            hadas: hadas_points,
            baselines: baseline_points,
        });
    }
    for panel in &panels {
        let slug = panel.hardware.to_lowercase().replace([' ', '.'], "_");
        hadas_bench::svg::write_svg(
            &bench_env!().results_dir(),
            &format!("fig5_ooe_{slug}"),
            &hadas_bench::svg::scatter_panel(
                &format!("Fig. 5 (top) — {}", panel.hardware),
                "energy (mJ)",
                "accuracy (%)",
                &panel.hadas,
                &panel.baselines,
            ),
        )?;
    }
    bench_env!().write_json("fig5_ooe", &panels)?;
    Ok(())
}
