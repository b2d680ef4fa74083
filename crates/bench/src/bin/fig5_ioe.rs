//! Regenerates **Fig. 5 (bottom row)**: the inner optimization engine's
//! explored `(b, x, f)` combinations — energy-efficiency gain vs mean
//! `N_i` — for HADAS and the optimized AttentiveNAS baselines, on all four
//! hardware settings.

use hadas::report::{Fig5Panel, ScatterPoint};
use hadas::Hadas;
use hadas_bench::{all_targets, bench_env, front_points, optimized_baselines};
use hadas_evo::{pareto_indices, ratio_of_dominance};

fn to_points(axes: &[Vec<f64>]) -> Vec<ScatterPoint> {
    let front = pareto_indices(axes);
    axes.iter()
        .enumerate()
        .map(|(i, a)| ScatterPoint { x: a[0], y: a[1], pareto: front.contains(&i) })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = bench_env!().scaled_config();
    let mut panels = Vec::new();
    let mut rod_sum = 0.0;
    for target in all_targets() {
        let hadas = Hadas::for_target(target);

        // HADAS side: joint run, collect every IOE point of every promoted
        // backbone (the (B, X, F) cloud of the figure).
        let outcome = hadas.run(&cfg)?;
        let mut hadas_axes: Vec<Vec<f64>> = Vec::new();
        for b in outcome.backbones() {
            if let Some(ioe) = &b.ioe {
                hadas_axes.extend(ioe.history_axes());
            }
        }

        // Baseline side: the same IOE budget spent on a0..a6.
        let mut baseline_axes: Vec<Vec<f64>> = Vec::new();
        for (_, ioe) in optimized_baselines(&hadas, &cfg)? {
            baseline_axes.extend(ioe.history_axes());
        }

        let hadas_front = front_points(&hadas_axes);
        let base_front = front_points(&baseline_axes);
        let rod = ratio_of_dominance(&hadas_front, &base_front);
        rod_sum += rod;

        let h_best_gain = hadas_front.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
        let b_best_gain = base_front.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
        println!("== {} ==", target.name());
        println!(
            "  HADAS: {} points, front {} | baselines: {} points, front {}",
            hadas_axes.len(),
            hadas_front.len(),
            baseline_axes.len(),
            base_front.len()
        );
        println!(
            "  extreme energy gain: HADAS {:.0}% vs baselines {:.0}%  (paper e.g. 63% vs 52% on Carmel)",
            h_best_gain * 100.0,
            b_best_gain * 100.0
        );
        println!("  HADAS front dominance over baseline front: {:.0}%", rod * 100.0);

        panels.push(Fig5Panel {
            hardware: target.name().to_string(),
            hadas: to_points(&hadas_axes),
            baselines: to_points(&baseline_axes),
        });
    }
    println!();
    println!(
        "average ratio of dominance across the 4 settings: {:.1}% (paper: 58.4%)",
        rod_sum / 4.0 * 100.0
    );
    for panel in &panels {
        let slug = panel.hardware.to_lowercase().replace([' ', '.'], "_");
        hadas_bench::svg::write_svg(
            &bench_env!().results_dir(),
            &format!("fig5_ioe_{slug}"),
            &hadas_bench::svg::scatter_panel(
                &format!("Fig. 5 (bottom) — {}", panel.hardware),
                "energy gain",
                "mean N_i",
                &panel.hadas,
                &panel.baselines,
            ),
        )?;
    }
    bench_env!().write_json("fig5_ioe", &panels)?;
    Ok(())
}
