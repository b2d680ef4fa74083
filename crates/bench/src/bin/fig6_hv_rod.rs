//! Regenerates **Fig. 6**: hypervolume and ratio-of-dominance of the
//! HADAS inner-search fronts against the optimized baselines, per hardware
//! setting.

use hadas::report::Fig6Bar;
use hadas::Hadas;
use hadas_bench::{all_targets, bench_env, front_points, optimized_baselines};
use hadas_evo::{hypervolume_2d, ratio_of_dominance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = bench_env!().scaled_config();
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
    for target in all_targets() {
        let hadas = Hadas::for_target(target);
        let outcome = hadas.run(&cfg)?;
        let mut hadas_axes: Vec<Vec<f64>> = Vec::new();
        for b in outcome.backbones() {
            if let Some(ioe) = &b.ioe {
                hadas_axes.extend(ioe.history_axes());
            }
        }
        let mut baseline_axes: Vec<Vec<f64>> = Vec::new();
        for (_, ioe) in optimized_baselines(&hadas, &cfg)? {
            baseline_axes.extend(ioe.history_axes());
        }
        let hf = front_points(&hadas_axes);
        let bf = front_points(&baseline_axes);
        let bar = Fig6Bar {
            hardware: target.name().to_string(),
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
    hadas_bench::svg::write_svg(
        &bench_env!().results_dir(),
        "fig6_hv",
        &hadas_bench::svg::grouped_bars(
            "Fig. 6a — hypervolume",
            "HV x100",
            &labels,
            &[
                ("HADAS", bars.iter().map(|b| b.hadas_hv * 100.0).collect()),
                ("baselines", bars.iter().map(|b| b.baseline_hv * 100.0).collect()),
            ],
        ),
    )?;
    hadas_bench::svg::write_svg(
        &bench_env!().results_dir(),
        "fig6_rod",
        &hadas_bench::svg::grouped_bars(
            "Fig. 6b — ratio of dominance",
            "RoD (%)",
            &labels,
            &[
                ("HADAS", bars.iter().map(|b| b.hadas_rod * 100.0).collect()),
                ("baselines", bars.iter().map(|b| b.baseline_rod * 100.0).collect()),
            ],
        ),
    )?;
    bench_env!().write_json("fig6_hv_rod", &bars)?;
    Ok(())
}
