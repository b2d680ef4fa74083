//! Figures 1, 5, 6 and 7, and the OOE convergence curve.

use super::{a0_a6_stages, backbone_stages, tx2, PaperRun};
use crate::front_points;
use crate::svg::{grouped_bars, scatter_panel, write_svg};
use hadas::report::{Fig1Bars, Fig5Panel, Fig6Bar, ScatterPoint};
use hadas_evo::{dominates, hypervolume_2d, pareto_indices, ratio_of_dominance};
use serde::Serialize;
use std::error::Error;
use std::path::Path;

/// **Fig. 1**: the motivational comparison of AttentiveNAS a0 and a6
/// against one HADAS model on CIFAR-100 / TX2 Pascal GPU, across the
/// three optimisation stages *Static*, *Dyn* (early exits), and
/// *Dyn w/HW* (early exits + DVFS). a0 and a6 read their optimized
/// baseline runs; the HADAS model is the backbone of the joint search
/// whose deployment pick is cheapest while holding a6-level dynamic
/// accuracy, read off its own inner-search front. Writes both bar
/// charts under `dir`.
pub(crate) fn fig1_motivation(
    runs: &[PaperRun],
    dir: &Path,
) -> Result<Vec<Fig1Bars>, Box<dyn Error>> {
    let run = tx2(runs)?;
    let mut bars = a0_a6_stages(run)?;
    let floor = bars[1].dyn_fitness.accuracy_pct - 0.5;
    let picks = backbone_stages(run, "HADAS", &[floor])?;
    let hadas = picks
        .into_iter()
        .min_by(|a, b| a.dyn_hw_fitness.energy_mj.total_cmp(&b.dyn_hw_fitness.energy_mj))
        .ok_or_else(|| {
            format!(
                "no backbone of the joint search holds the a6 accuracy floor of {floor:.2}% \
                 (a6 Dyn accuracy - 0.5) within its static latency"
            )
        })?;
    bars.push(hadas);

    println!("FIG. 1 — accuracy and energy per optimisation stage (TX2 Pascal GPU)");
    println!(
        "{:<18} {:>11} {:>9} | {:>12} {:>9} {:>12}",
        "Model", "Static acc", "Dyn acc", "Static mJ", "Dyn mJ", "Dyn w/HW mJ"
    );
    println!("{}", "-".repeat(80));
    for b in &bars {
        println!(
            "{:<18} {:>10.2}% {:>8.2}% | {:>12.2} {:>9.2} {:>12.2}",
            b.model,
            b.static_fitness.accuracy_pct,
            b.dyn_fitness.accuracy_pct,
            b.static_fitness.energy_mj,
            b.dyn_fitness.energy_mj,
            b.dyn_hw_fitness.energy_mj,
        );
    }

    // The paper's headline observations for this figure.
    let (a0b, a6b, hb) = (&bars[0], &bars[1], &bars[2]);
    println!();
    println!(
        "a0 static advantage over HADAS backbone: {:.0}% (paper: ~22%)",
        (1.0 - a0b.static_fitness.energy_mj / hb.static_fitness.energy_mj) * 100.0
    );
    println!(
        "HADAS Dyn vs a0 Dyn energy: {:.2} vs {:.2} mJ (paper: reaches the same level)",
        hb.dyn_fitness.energy_mj, a0b.dyn_fitness.energy_mj
    );
    println!(
        "HADAS Dyn w/HW vs a0 Dyn w/HW: {:.0}% more efficient (paper: ~19%)",
        (1.0 - hb.dyn_hw_fitness.energy_mj / a0b.dyn_hw_fitness.energy_mj) * 100.0
    );
    println!(
        "HADAS Dyn acc {:.2}% vs a6 static {:.2}% (paper: on par after Dyn)",
        hb.dyn_fitness.accuracy_pct, a6b.static_fitness.accuracy_pct
    );
    let labels: Vec<String> = bars.iter().map(|b| b.model.clone()).collect();
    write_svg(
        dir,
        "fig1_accuracy",
        &grouped_bars(
            "Fig. 1 — accuracy per stage",
            "top-1 (%)",
            &labels,
            &[
                ("Static", bars.iter().map(|b| b.static_fitness.accuracy_pct).collect()),
                ("Dyn", bars.iter().map(|b| b.dyn_fitness.accuracy_pct).collect()),
            ],
        ),
    )?;
    write_svg(
        dir,
        "fig1_energy",
        &grouped_bars(
            "Fig. 1 — energy per stage",
            "energy (mJ)",
            &labels,
            &[
                ("Static", bars.iter().map(|b| b.static_fitness.energy_mj).collect()),
                ("Dyn", bars.iter().map(|b| b.dyn_fitness.energy_mj).collect()),
                ("Dyn w/HW", bars.iter().map(|b| b.dyn_hw_fitness.energy_mj).collect()),
            ],
        ),
    )?;
    Ok(bars)
}

/// Writes one scatter SVG per Fig. 5 panel under `dir`.
fn write_fig5_panels(
    dir: &Path,
    (stem, title): (&str, &str),
    axes: (&str, &str),
    panels: &[Fig5Panel],
) -> Result<(), Box<dyn Error>> {
    for panel in panels {
        let slug = panel.hardware.to_lowercase().replace([' ', '.'], "_");
        write_svg(
            dir,
            &format!("{stem}_{slug}"),
            &scatter_panel(
                &format!("{title} — {}", panel.hardware),
                axes.0,
                axes.1,
                &panel.hadas,
                &panel.baselines,
            ),
        )?;
    }
    Ok(())
}

/// **Fig. 5 (top row)**: the outer optimization engine's explored
/// backbones and static Pareto fronts against the AttentiveNAS baselines
/// a0..a6, on all four hardware settings. Writes one SVG per panel under
/// `dir`.
pub(crate) fn fig5_ooe(runs: &[PaperRun], dir: &Path) -> Result<Vec<Fig5Panel>, Box<dyn Error>> {
    let mut panels = Vec::new();
    for run in runs {
        let axes = run.outcome.static_axes();
        let front: Vec<Vec<f64>> =
            run.outcome.static_pareto().iter().map(|b| b.fitness.to_plot_axes()).collect();

        // x: energy mJ, y: accuracy %.
        let hadas_points: Vec<ScatterPoint> = axes
            .iter()
            .map(|a| ScatterPoint { x: -a[1], y: a[0], pareto: front.contains(a) })
            .collect();

        println!("== {} ==", run.target().name());
        println!("explored {} backbones; Pareto front of {} points", axes.len(), front.len());
        let mut baseline_points = Vec::new();
        let mut dominated = 0usize;
        for b in &run.baselines {
            let (name, acc, energy) = (&b.name, b.fitness.accuracy_pct, b.fitness.energy_mj);
            let p = vec![acc, -energy];
            let dominators: Vec<&Vec<f64>> = front.iter().filter(|f| dominates(f, &p)).collect();
            let is_dominated = !dominators.is_empty();
            dominated += usize::from(is_dominated);
            if is_dominated {
                // Report the energy cut at the same-or-better accuracy, as
                // the paper does for a6 (~33% on the AGX Volta GPU).
                let best_cut =
                    dominators.iter().map(|f| 1.0 - (-f[1]) / energy).fold(f64::MIN, f64::max);
                let best_acc_gain = dominators.iter().map(|f| f[0] - acc).fold(f64::MIN, f64::max);
                println!(
                    "  {name}: acc {acc:.2}%, {energy:.2} mJ — dominated (energy cut up to {:.0}%, acc gain up to {:.2}pp)",
                    best_cut * 100.0,
                    best_acc_gain
                );
            } else {
                println!("  {name}: acc {acc:.2}%, {energy:.2} mJ — not dominated");
            }
            baseline_points.push(ScatterPoint { x: energy, y: acc, pareto: !is_dominated });
        }
        println!("  dominated baselines: {dominated}/7");
        panels.push(Fig5Panel {
            hardware: run.target().name().to_string(),
            hadas: hadas_points,
            baselines: baseline_points,
        });
    }
    write_fig5_panels(dir, ("fig5_ooe", "Fig. 5 (top)"), ("energy (mJ)", "accuracy (%)"), &panels)?;
    Ok(panels)
}

fn to_points(axes: &[Vec<f64>]) -> Vec<ScatterPoint> {
    let front = pareto_indices(axes);
    axes.iter()
        .enumerate()
        .map(|(i, a)| ScatterPoint { x: a[0], y: a[1], pareto: front.contains(&i) })
        .collect()
}

/// **Fig. 5 (bottom row)**: the inner optimization engine's explored
/// `(b, x, f)` combinations — energy-efficiency gain vs mean `N_i` — for
/// HADAS and the optimized AttentiveNAS baselines, on all four hardware
/// settings. Writes one SVG per panel under `dir`.
pub(crate) fn fig5_ioe(runs: &[PaperRun], dir: &Path) -> Result<Vec<Fig5Panel>, Box<dyn Error>> {
    let mut panels = Vec::new();
    let mut rod_sum = 0.0;
    for run in runs {
        let (hadas_axes, baseline_axes) = run.ioe_clouds();
        let hadas_front = front_points(&hadas_axes);
        let base_front = front_points(&baseline_axes);
        let rod = ratio_of_dominance(&hadas_front, &base_front);
        rod_sum += rod;

        let h_best_gain = hadas_front.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
        let b_best_gain = base_front.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
        println!("== {} ==", run.target().name());
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
            hardware: run.target().name().to_string(),
            hadas: to_points(&hadas_axes),
            baselines: to_points(&baseline_axes),
        });
    }
    println!();
    println!(
        "average ratio of dominance across the 4 settings: {:.1}% (paper: 58.4%)",
        rod_sum / 4.0 * 100.0
    );
    write_fig5_panels(dir, ("fig5_ioe", "Fig. 5 (bottom)"), ("energy gain", "mean N_i"), &panels)?;
    Ok(panels)
}

/// **Fig. 6**: hypervolume and ratio-of-dominance of the HADAS
/// inner-search fronts against the optimized baselines, per hardware
/// setting. Writes both bar charts under `dir`.
pub(crate) fn fig6_hv_rod(runs: &[PaperRun], dir: &Path) -> Result<Vec<Fig6Bar>, Box<dyn Error>> {
    // Reference point for (energy gain, mean N_i): slightly below the
    // worst useful values so every sane solution contributes volume.
    let reference = [-0.5f64, 0.0];
    let mut bars = Vec::new();
    println!("FIG. 6 — hypervolume (HV) and ratio of dominance (RoD)");
    println!(
        "{:<24} {:>9} {:>12} | {:>9} {:>12}",
        "Hardware", "HV HADAS", "HV baseline", "RoD HADAS", "RoD baseline"
    );
    println!("{}", "-".repeat(76));
    for run in runs {
        let (hadas_axes, baseline_axes) = run.ioe_clouds();
        let hf = front_points(&hadas_axes);
        let bf = front_points(&baseline_axes);
        let bar = Fig6Bar {
            hardware: run.target().name().to_string(),
            hadas_hv: hypervolume_2d(&hf, &reference),
            baseline_hv: hypervolume_2d(&bf, &reference),
            hadas_rod: ratio_of_dominance(&hf, &bf),
            baseline_rod: ratio_of_dominance(&bf, &hf),
        };
        println!(
            "{:<24} {:>9.4} {:>12.4} | {:>8.0}% {:>11.0}%",
            bar.hardware,
            bar.hadas_hv,
            bar.baseline_hv,
            bar.hadas_rod * 100.0,
            bar.baseline_rod * 100.0
        );
        bars.push(bar);
    }
    let wins_hv = bars.iter().filter(|b| b.hadas_hv >= b.baseline_hv).count();
    let wins_rod = bars.iter().filter(|b| b.hadas_rod >= b.baseline_rod).count();
    println!();
    println!("HADAS wins HV on {wins_hv}/4 and RoD on {wins_rod}/4 platforms (paper: 4/4 both)");
    if let Some(tx2) = bars.iter().find(|b| b.hardware.contains("Pascal")) {
        println!(
            "TX2 Pascal GPU: HV +{:.0}%, RoD +{:.0}pp for HADAS (paper: +16% HV, +95% RoD)",
            (tx2.hadas_hv / tx2.baseline_hv - 1.0) * 100.0,
            (tx2.hadas_rod - tx2.baseline_rod) * 100.0
        );
    }
    let labels: Vec<String> = bars.iter().map(|b| b.hardware.clone()).collect();
    write_svg(
        dir,
        "fig6_hv",
        &grouped_bars(
            "Fig. 6a — hypervolume",
            "HV x100",
            &labels,
            &[
                ("HADAS", bars.iter().map(|b| b.hadas_hv * 100.0).collect()),
                ("baselines", bars.iter().map(|b| b.baseline_hv * 100.0).collect()),
            ],
        ),
    )?;
    write_svg(
        dir,
        "fig6_rod",
        &grouped_bars(
            "Fig. 6b — ratio of dominance",
            "RoD (%)",
            &labels,
            &[
                ("HADAS", bars.iter().map(|b| b.hadas_rod * 100.0).collect()),
                ("baselines", bars.iter().map(|b| b.baseline_rod * 100.0).collect()),
            ],
        ),
    )?;
    Ok(bars)
}

#[derive(Debug, Serialize)]
struct AblationRun {
    label: String,
    gamma: f64,
    dissim: bool,
    front: Vec<Vec<f64>>,
    best_gain: f64,
    best_mean_n: f64,
}

/// **Fig. 7**: the dissimilarity-regularizer ablation — the inner engine
/// run on one fixed backbone (a3, TX2 Pascal GPU, seed `0xF167`) with
/// `dissimᵞ` disabled vs enabled, over a low and a high range of γ.
pub(crate) fn fig7_dissim(runs: &[PaperRun]) -> Result<impl Serialize, Box<dyn Error>> {
    let run = tx2(runs)?;
    let hadas = &run.hadas;
    // One fixed backbone, as in the paper's ablation.
    let subnet = hadas.space().decode(&hadas_space::baselines::baseline_genome(3))?;

    let variants: Vec<(String, bool, f64)> = vec![
        ("no dissim".into(), false, 0.0),
        ("gamma 0.5 (low)".into(), true, 0.5),
        ("gamma 1.0 (low)".into(), true, 1.0),
        ("gamma 2.0 (high)".into(), true, 2.0),
        ("gamma 4.0 (high)".into(), true, 4.0),
    ];

    let mut runs = Vec::new();
    for (label, dissim, gamma) in variants {
        let cfg = run.config.clone().with_dissimilarity(dissim, gamma);
        let ioe = hadas.run_ioe(&subnet, &cfg, 0xF167)?;
        let axes = ioe.history_axes();
        let front = front_points(&axes);
        let best_gain = front.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
        let best_mean_n = front.iter().map(|p| p[1]).fold(f64::MIN, f64::max);
        runs.push(AblationRun { label, gamma, dissim, front, best_gain, best_mean_n });
    }

    println!("FIG. 7 — dissimilarity ablation on one backbone (TX2 Pascal GPU)");
    println!("{:<18} {:>12} {:>12} {:>8}", "Variant", "best gain", "best mean N", "front");
    println!("{}", "-".repeat(56));
    for r in &runs {
        println!(
            "{:<18} {:>11.0}% {:>12.3} {:>8}",
            r.label,
            r.best_gain * 100.0,
            r.best_mean_n,
            r.front.len()
        );
    }

    let without = &runs[0];
    println!();
    for r in runs.iter().skip(1) {
        let rod_with = ratio_of_dominance(&r.front, &without.front);
        let rod_without = ratio_of_dominance(&without.front, &r.front);
        println!(
            "{}: RoD {:.0}% vs {:.0}% against no-dissim (paper: dissim improves RoD by ~41%)",
            r.label,
            rod_with * 100.0,
            rod_without * 100.0
        );
    }
    let best_with = runs[1..].iter().map(|r| r.best_gain).fold(f64::MIN, f64::max);
    println!(
        "extreme energy gain: {:.0}% with dissim vs {:.0}% without (paper: ~52% better extremes)",
        best_with * 100.0,
        without.best_gain * 100.0
    );
    Ok(runs)
}

#[derive(Debug, Serialize)]
struct ConvergencePanel {
    hardware: String,
    curve: Vec<(usize, f64)>,
    first_domination: Vec<(String, Option<usize>)>,
}

/// Search-efficiency curve: static-front hypervolume vs evaluation count,
/// per hardware setting — quantifying the paper's §V-B observation that
/// "HADAS can identify comparable backbones to the baselines with just a
/// few evaluations". Also reports how many evaluations the OOE needs
/// before its running Pareto front first dominates each baseline.
pub(crate) fn convergence(runs: &[PaperRun]) -> impl Serialize {
    let mut panels = Vec::new();
    for run in runs {
        let axes = run.outcome.static_axes();

        // Baselines as (name, [acc, -energy]) targets to dominate.
        let baselines: Vec<(String, Vec<f64>)> = run
            .baselines
            .iter()
            .map(|b| (b.name.clone(), vec![b.fitness.accuracy_pct, -b.fitness.energy_mj]))
            .collect();

        // Reference point: slightly worse than anything explored.
        let min_acc = axes.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min) - 1.0;
        let min_ne = axes.iter().map(|p| p[1]).fold(f64::INFINITY, f64::min) - 10.0;
        let reference = [min_acc, min_ne];

        let mut front: Vec<Vec<f64>> = Vec::new();
        let mut curve = Vec::new();
        let mut first: Vec<Option<usize>> = vec![None; baselines.len()];
        for (i, p) in axes.iter().enumerate() {
            if !front.iter().any(|f| dominates(f, p) || f == p) {
                front.retain(|f| !dominates(p, f));
                front.push(p.clone());
            }
            for (k, (_, b)) in baselines.iter().enumerate() {
                if first[k].is_none() && front.iter().any(|f| dominates(f, b)) {
                    first[k] = Some(i + 1);
                }
            }
            let step = (axes.len() / 12).max(1);
            if (i + 1) % step == 0 || i + 1 == axes.len() {
                curve.push((i + 1, hypervolume_2d(&front, &reference)));
            }
        }

        println!("== {} ==", run.target().name());
        let final_hv = curve.last().map(|&(_, h)| h).unwrap_or(0.0);
        for &(evals, hv) in &curve {
            println!("  {evals:>4} evals: HV {:.1} ({:.0}% of final)", hv, hv / final_hv * 100.0);
        }
        for (k, (name, _)) in baselines.iter().enumerate() {
            match first[k] {
                Some(e) => println!("  dominates {name} after {e} evaluations"),
                None => println!("  never dominates {name} at this budget"),
            }
        }
        panels.push(ConvergencePanel {
            hardware: run.target().name().to_string(),
            curve,
            first_domination: baselines
                .iter()
                .map(|(n, _)| n.clone())
                .zip(first.iter().copied())
                .collect(),
        });
    }
    // The paper's qualitative claim: most of the final front quality
    // arrives early.
    let early_share: f64 = panels
        .iter()
        .filter_map(|p| {
            let &(final_evals, final_hv) = p.curve.last()?;
            let early = p.curve.iter().find(|&&(e, _)| e * 3 >= final_evals)?;
            Some(early.1 / final_hv)
        })
        .sum::<f64>()
        / panels.len() as f64;
    println!();
    println!(
        "on average the first third of the budget reaches {:.0}% of the final hypervolume",
        early_share * 100.0
    );
    panels
}
