//! Regenerates **Fig. 1**: the motivational comparison of AttentiveNAS a0
//! and a6 against one HADAS model on CIFAR-100 / TX2 Pascal GPU, across
//! the three optimisation stages *Static*, *Dyn* (early exits), and
//! *Dyn w/HW* (early exits + DVFS).

use hadas::{report::Fig1Bars, DynamicModel, Hadas, StaticFitness};
use hadas_bench::{bench_env, select_solution};
use hadas_hw::HwTarget;
use hadas_space::Subnet;
use std::error::Error;

fn stage_bars(
    hadas: &Hadas,
    name: &str,
    subnet: &Subnet,
    seed: u64,
    acc_floor: f64,
) -> Result<Fig1Bars, Box<dyn Error>> {
    let cfg = bench_env!().scaled_config();
    let device = hadas.device();
    let cost = device.subnet_cost(subnet, &device.default_dvfs())?;
    let static_fitness = StaticFitness {
        accuracy_pct: hadas.accuracy().backbone_accuracy(subnet),
        latency_ms: cost.latency_ms(),
        energy_mj: cost.energy_mj(),
    };
    // Dyn w/HW: minimum-energy (x*, f*) that is no slower than static.
    let ioe = hadas.run_ioe(subnet, &cfg, seed)?;
    let best = select_solution(&ioe, cost.latency_ms(), acc_floor)
        .or_else(|| select_solution(&ioe, cost.latency_ms(), 0.0))
        .ok_or_else(|| format!("{name}: the IOE front has no configuration as fast as static"))?
        .clone();
    // Dyn: the same exit placement, evaluated at default clocks.
    let dyn_model =
        DynamicModel::new(subnet.clone(), best.placement.clone(), device.default_dvfs());
    let dyn_eval =
        dyn_model.evaluate(hadas.accuracy(), device, cfg.gamma, cfg.use_dissimilarity)?;
    Ok(Fig1Bars {
        model: name.to_string(),
        static_fitness,
        dyn_fitness: dyn_eval.fitness,
        dyn_hw_fitness: best.fitness,
    })
}

fn main() -> Result<(), Box<dyn Error>> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let cfg = bench_env!().scaled_config();
    let nets = hadas_bench::baseline_subnets(&hadas)?;
    let a0 = &nets[0].1;
    let a6 = &nets[6].1;

    let a0_bars = stage_bars(&hadas, "AttentiveNAS_a0", a0, 101, 0.0)?;
    let a6_bars = stage_bars(&hadas, "AttentiveNAS_a6", a6, 102, 0.0)?;

    // The HADAS model: from a joint run, the backbone whose deployment
    // pick is cheapest while holding a6-level dynamic accuracy.
    let outcome = hadas.run(&cfg)?;
    let floor = a6_bars.dyn_fitness.accuracy_pct - 0.5;
    let device = hadas.device();
    let mut picks = Vec::new();
    for b in outcome.backbones() {
        let Some(ioe) = b.ioe.as_ref() else { continue };
        let lat = device.subnet_cost(&b.subnet, &device.default_dvfs())?.latency_ms();
        if let Some(s) = select_solution(ioe, lat, floor) {
            picks.push((b.subnet.clone(), s.fitness.energy_mj));
        }
    }
    let hadas_subnet =
        picks.into_iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|(subnet, _)| subnet).ok_or_else(
            || {
                format!(
                    "no backbone of the joint search holds the a6 accuracy floor of {floor:.2}% \
                 (a6 Dyn accuracy - 0.5) within its static latency at {} scale",
                    bench_env!().scale_name()
                )
            },
        )?;
    let hadas_bars = stage_bars(&hadas, "HADAS", &hadas_subnet, 103, floor)?;

    let bars = vec![a0_bars, a6_bars, hadas_bars];
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
    hadas_bench::svg::write_svg(
        &bench_env!().results_dir(),
        "fig1_accuracy",
        &hadas_bench::svg::grouped_bars(
            "Fig. 1 — accuracy per stage",
            "top-1 (%)",
            &labels,
            &[
                ("Static", bars.iter().map(|b| b.static_fitness.accuracy_pct).collect()),
                ("Dyn", bars.iter().map(|b| b.dyn_fitness.accuracy_pct).collect()),
            ],
        ),
    )?;
    hadas_bench::svg::write_svg(
        &bench_env!().results_dir(),
        "fig1_energy",
        &hadas_bench::svg::grouped_bars(
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
    bench_env!().write_json("fig1_motivation", &bars)?;
    Ok(())
}
