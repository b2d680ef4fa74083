//! Tables I–III and the four ablation tables: DVFS contribution, proxy
//! cost model, OOE pruning, and NSGA-II against random search.

use super::{a0_a6_stages, backbone_stages, tx2, PaperRun};
use crate::front_points;
use hadas::related::TABLE_I;
use hadas::report::{Fig1Bars, Table3Row};
use hadas::{DynamicModel, Hadas, HadasConfig, HadasError, OoeOutcome};
use hadas_evo::{hypervolume_2d, ratio_of_dominance};
use hadas_exits::ExitPlacement;
use hadas_hw::{
    CostModel, CostReport, DeviceModel, DvfsLadder, DvfsSetting, HwError, HwTarget, ProxyCostModel,
};
use hadas_space::{baselines, LayerInfo, SearchSpace};
use serde::Serialize;
use std::collections::BTreeSet;
use std::error::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct RelatedWork {
    work: String,
    early_exiting: bool,
    nas: bool,
    dvfs: bool,
    compatibility: bool,
}

/// **Table I**: the related-work capability comparison, asserting that
/// HADAS is the only framework with all four capabilities.
pub(crate) fn table1_related() -> impl Serialize {
    println!("TABLE I — comparison between related works and HADAS");
    println!(
        "{:<18} {:^13} {:^5} {:^6} {:^13}",
        "Work", "Early-Exiting", "NAS", "DVFS", "Compatibility"
    );
    println!("{}", "-".repeat(60));
    let mark = |b: bool| if b { "X" } else { "" };
    let mut rows = Vec::new();
    for w in TABLE_I {
        println!(
            "{:<18} {:^13} {:^5} {:^6} {:^13}",
            w.name,
            mark(w.early_exiting),
            mark(w.nas),
            mark(w.dvfs),
            mark(w.compatibility)
        );
        rows.push(RelatedWork {
            work: w.name.to_string(),
            early_exiting: w.early_exiting,
            nas: w.nas,
            dvfs: w.dvfs,
            compatibility: w.compatibility,
        });
    }
    assert!(
        TABLE_I.iter().filter(|w| w.capability_count() == 4).all(|w| w.name == "HADAS"),
        "HADAS must be the only framework with all four capabilities"
    );
    rows
}

#[derive(Debug, Serialize)]
struct SpaceRow {
    variable: String,
    values: String,
    cardinality: String,
}

/// **Table II**: the decision variables and cardinalities of the three
/// HADAS subspaces (B, X, F), asserting they match the paper.
pub(crate) fn table2_spaces() -> Result<impl Serialize, Box<dyn Error>> {
    let space = SearchSpace::attentive_nas();
    let mut rows = Vec::new();

    println!("TABLE II — HADAS joint search spaces");
    println!("{:<42} {:<34} Cardinality", "Decision variable", "Values");
    println!("{}", "-".repeat(96));

    println!("Backbone search space (B)");
    let push = |rows: &mut Vec<SpaceRow>, var: &str, vals: String, card: String| {
        println!("  {:<40} {:<34} {}", var, vals, card);
        rows.push(SpaceRow { variable: var.into(), values: vals, cardinality: card });
    };
    push(&mut rows, "Number of blocks (n_block)", "7".into(), "1".into());
    assert_eq!(space.stages().len(), 7);
    push(
        &mut rows,
        "Input resolution (res)",
        format!("{:?}", space.resolutions()),
        space.resolutions().len().to_string(),
    );
    assert_eq!(space.resolutions().len(), 4);
    let depths: BTreeSet<usize> =
        space.stages().iter().flat_map(|s| s.depths.iter().copied()).collect();
    push(&mut rows, "Block depth (l)", format!("{depths:?}"), depths.len().to_string());
    assert_eq!(depths.len(), 8, "depth values {{1..8}}");
    let widths: BTreeSet<usize> = space
        .stages()
        .iter()
        .flat_map(|s| s.widths.iter().copied())
        .chain(space.stem_widths().iter().copied())
        .chain(space.head_widths().iter().copied())
        .collect();
    let w_lo = widths.iter().min().ok_or("the width set cannot be empty")?;
    let w_hi = widths.iter().max().ok_or("the width set cannot be empty")?;
    push(&mut rows, "Block width (w)", format!("[{w_lo}, {w_hi}]"), widths.len().to_string());
    assert_eq!(widths.len(), 16, "16 distinct widths in [16, 1984]");
    let kernels: BTreeSet<usize> =
        space.stages().iter().flat_map(|s| s.kernels.iter().copied()).collect();
    push(&mut rows, "Block kernel size (k)", format!("{kernels:?}"), kernels.len().to_string());
    assert_eq!(kernels.len(), 2);
    let expands: BTreeSet<usize> =
        space.stages().iter().flat_map(|s| s.expands.iter().copied()).collect();
    push(&mut rows, "Block expand ratio (er)", format!("{expands:?}"), expands.len().to_string());
    assert_eq!(expands, [1usize, 4, 5, 6].into_iter().collect());
    println!("  total backbone cardinality: {:.3e} (paper: > 2.94e11)", space.cardinality());
    assert!(space.cardinality() > 2.94e11);

    println!("Exit search space (X), conditioned on each backbone b");
    let mut min_l = 0usize;
    let mut max_l = 0usize;
    for s in space.stages() {
        min_l += s.depths.iter().copied().min().ok_or("a stage must offer a depth")?;
        max_l += s.depths.iter().copied().max().ok_or("a stage must offer a depth")?;
    }
    push(
        &mut rows,
        "Number of exits (nX)",
        format!("[1, Σl−5] with Σl in [{min_l}, {max_l}]"),
        format!("max {}", max_l - 5),
    );
    push(
        &mut rows,
        "Exit positions (posX)",
        "[5, Σl]".to_string(),
        format!("C(nX, Σl−4); {} candidates at Σl={max_l}", ExitPlacement::candidate_count(max_l)),
    );

    println!("DVFS search space (F)");
    for target in HwTarget::ALL {
        let dev = DeviceModel::for_target(target);
        let unit = match target {
            HwTarget::AgxVoltaGpu | HwTarget::Tx2PascalGpu => "GPU",
            _ => "CPU",
        };
        let c = dev.ladder().compute_ghz();
        push(
            &mut rows,
            &format!("{unit} frequency ({})", target.name()),
            format!("[{:.1}GHz, {:.1}GHz]", c[0], c[c.len() - 1]),
            dev.ladder().compute_steps().to_string(),
        );
    }
    for (name, target) in [
        ("EMC frequency (AGX SOC)", HwTarget::AgxVoltaGpu),
        ("EMC frequency (TX2 SOC)", HwTarget::Tx2PascalGpu),
    ] {
        let dev = DeviceModel::for_target(target);
        let m = dev.ladder().emc_ghz();
        push(
            &mut rows,
            name,
            format!("[{:.1}GHz, {:.1}GHz]", m[0], m[m.len() - 1]),
            dev.ladder().emc_steps().to_string(),
        );
    }

    // Paper cardinalities: AGX GPU 14, Carmel 29, TX2 GPU 13, Denver 12,
    // EMC AGX 9, EMC TX2 11.
    assert_eq!(DeviceModel::for_target(HwTarget::AgxVoltaGpu).ladder().compute_steps(), 14);
    assert_eq!(DeviceModel::for_target(HwTarget::AgxCarmelCpu).ladder().compute_steps(), 29);
    assert_eq!(DeviceModel::for_target(HwTarget::Tx2PascalGpu).ladder().compute_steps(), 13);
    assert_eq!(DeviceModel::for_target(HwTarget::Tx2DenverCpu).ladder().compute_steps(), 12);
    println!("\nall Table II cardinalities match the paper");
    Ok(rows)
}

fn table3_row(bars: Fig1Bars) -> Table3Row {
    Table3Row {
        model: bars.model,
        baseline_acc: bars.static_fitness.accuracy_pct,
        eex_acc: bars.dyn_fitness.accuracy_pct,
        baseline_energy_mj: bars.static_fitness.energy_mj,
        eex_energy_mj: bars.dyn_fitness.energy_mj,
        eex_dvfs_energy_mj: bars.dyn_hw_fitness.energy_mj,
    }
}

/// **Table III**: DyNN comparison on the TX2 Pascal GPU — static
/// (baseline) accuracy/energy, early-exit accuracy/energy, and early-exit
/// + DVFS energy for AttentiveNAS a0/a6 and the top HADAS models b1..b4.
///
/// Deployment picks follow the paper's reporting convention: from each
/// model's inner-search Pareto set, take the minimum-energy configuration
/// that is no slower than the static baseline and meets the accuracy bar.
pub(crate) fn table3_dynns(runs: &[PaperRun]) -> Result<Vec<Table3Row>, Box<dyn Error>> {
    let run = tx2(runs)?;
    let mut rows: Vec<Table3Row> = a0_a6_stages(run)?.into_iter().map(table3_row).collect();
    let a0_eex_acc = rows[0].eex_acc;
    let a6_eex_acc = rows[1].eex_acc;

    // HADAS b1..b4: b1 is the cheapest DyNN with a6-level dynamic
    // accuracy; b2..b4 the next-cheapest still clearly above a0's.
    let floors = [a6_eex_acc - 1.0, a0_eex_acc + 0.5];
    let mut candidates: Vec<Table3Row> =
        backbone_stages(run, "candidate", &floors)?.into_iter().map(table3_row).collect();
    candidates.sort_by(|a, b| a.eex_dvfs_energy_mj.total_cmp(&b.eex_dvfs_energy_mj));
    // b1 must hold the a6-accuracy bar.
    if let Some(i) = candidates.iter().position(|r| r.eex_acc >= a6_eex_acc - 1.0) {
        let r = candidates.remove(i);
        candidates.insert(0, r);
    }
    for (k, mut r) in candidates.into_iter().take(4).enumerate() {
        r.model = format!("HADAS_b{}", k + 1);
        rows.push(r);
    }

    println!("TABLE III — DyNNs comparison using the TX2 Pascal GPU");
    println!(
        "{:<18} {:>12} {:>9} {:>14} {:>10} {:>15}",
        "Model", "Baseline Acc", "EEx Acc", "Baseline Ergy", "EEx Ergy", "EEx_DVFS Ergy"
    );
    println!("{}", "-".repeat(84));
    for r in &rows {
        println!(
            "{:<18} {:>11.2}% {:>8.2}% {:>13.2}mJ {:>9.2}mJ {:>14.2}mJ",
            r.model,
            r.baseline_acc,
            r.eex_acc,
            r.baseline_energy_mj,
            r.eex_energy_mj,
            r.eex_dvfs_energy_mj
        );
    }

    // Headline shape checks (paper: b1 is 57% / 19% more efficient than
    // a6 / a0 with a6-level accuracy).
    let (a0, a6) = (&rows[0], &rows[1]);
    if let Some(b1) = rows.iter().find(|r| r.model == "HADAS_b1") {
        println!();
        println!(
            "HADAS_b1 vs a6 (EEx_DVFS): {:.0}% more energy-efficient (paper: 57%)",
            (1.0 - b1.eex_dvfs_energy_mj / a6.eex_dvfs_energy_mj) * 100.0
        );
        println!(
            "HADAS_b1 vs a0 (EEx_DVFS): {:.0}% more energy-efficient (paper: 19%)",
            (1.0 - b1.eex_dvfs_energy_mj / a0.eex_dvfs_energy_mj) * 100.0
        );
        println!(
            "HADAS_b1 EEx acc {:.2}% vs a6 EEx acc {:.2}% (paper: similar)",
            b1.eex_acc, a6.eex_acc
        );
    }
    Ok(rows)
}

#[derive(Debug, Serialize)]
struct DvfsAblation {
    hardware: String,
    mean_gain_exits_only: f64,
    mean_gain_with_dvfs: f64,
    dvfs_extra_energy_cut: f64,
}

/// Ablation: how much of the inner engine's gain comes from the DVFS
/// subspace **F** vs early exits alone. For each hardware setting, every
/// Pareto placement the IOE finds on a4 (seed `0xDF5`) is re-evaluated
/// at default clocks and compared against its searched DVFS pairing.
pub(crate) fn ablation_dvfs(runs: &[PaperRun]) -> Result<impl Serialize, HadasError> {
    println!("ABLATION — DVFS contribution per hardware setting");
    println!(
        "{:<24} {:>16} {:>16} {:>16}",
        "Hardware", "gain exits-only", "gain with DVFS", "DVFS extra cut"
    );
    println!("{}", "-".repeat(76));
    let mut rows = Vec::new();
    for run in runs {
        let (hadas, cfg) = (&run.hadas, &run.config);
        let subnet = hadas.space().decode(&baselines::baseline_genome(4))?;
        let ioe = hadas.run_ioe(&subnet, cfg, 0xDF5)?;
        let device = hadas.device();
        let (mut sum_exits, mut sum_dvfs, mut extra) = (0.0, 0.0, 0.0);
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
            hardware: run.target().name().to_string(),
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
    Ok(rows)
}

#[derive(Debug, Serialize)]
struct ProxyRun {
    mode: String,
    device_queries: u64,
    true_front_hv: f64,
    pareto_models: usize,
}

/// Wraps a device and counts how many measurements the search draws from
/// it — the quantity the paper's "2–3 GPU days vs 1" claim is about.
#[derive(Debug)]
struct CountingDevice {
    inner: DeviceModel,
    queries: AtomicU64,
}

impl CostModel for CountingDevice {
    fn target(&self) -> HwTarget {
        CostModel::target(&self.inner)
    }

    fn ladder(&self) -> &DvfsLadder {
        CostModel::ladder(&self.inner)
    }

    fn layer_cost(&self, layer: &LayerInfo, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.layer_cost(layer, setting)
    }

    fn invoke_cost(&self, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.invoke_cost(setting)
    }
}

/// Re-measures every Pareto model on the exact device (the deployment
/// reality check a proxy-driven search must pass) and returns the
/// hypervolume of the re-measured front.
fn true_front_hv(
    hadas_exact: &Hadas,
    outcome: &OoeOutcome,
    cfg: &HadasConfig,
) -> Result<f64, HadasError> {
    let mut axes: Vec<Vec<f64>> = Vec::new();
    for m in outcome.pareto_models() {
        let eval = DynamicModel::new(m.subnet.clone(), m.placement.clone(), m.dvfs).evaluate(
            hadas_exact.accuracy(),
            hadas_exact.device(),
            cfg.gamma,
            cfg.use_dissimilarity,
        )?;
        axes.push(vec![eval.fitness.energy_gain, eval.fitness.accuracy_pct / 100.0]);
    }
    Ok(hypervolume_2d(&front_points(&axes), &[-0.5, 0.0]))
}

/// Ablation: proxy cost model vs hardware in the loop (paper §V-A: the
/// search overhead drops from 2–3 GPU days to ~1 if a proxy replaces the
/// HW-in-the-loop setup).
///
/// Fits a [`ProxyCostModel`] from a one-off sample of device
/// measurements, reports its held-out accuracy, runs the joint search
/// against proxy and device, and compares the *true* quality (re-measured
/// on the device) of the two Pareto sets plus the number of device
/// queries each search consumed. Wall-clock times are printed, never
/// recorded, so the record is a pure function of the configuration.
pub(crate) fn ablation_proxy(runs: &[PaperRun]) -> Result<impl Serialize, Box<dyn Error>> {
    let run = tx2(runs)?;
    let (exact, cfg) = (&run.hadas, &run.config);
    let space = exact.space();
    let device = DeviceModel::for_target(HwTarget::Tx2PascalGpu);

    // One-off proxy fit + held-out validation.
    let fit_start = Instant::now(); // lint:allow(det-wall-clock) printed, never recorded
    let proxy = ProxyCostModel::fit(&device, space, 3_000, 17)?;
    let fit_ms = fit_start.elapsed().as_millis();
    let v = proxy.validate(&device, space, 100, 18)?;
    println!("proxy fit on {} device measurements in {} ms", proxy.training_samples(), fit_ms);
    println!(
        "held-out MAPE: latency {:.1}%, energy {:.1}% over {} subnet queries",
        v.latency_mape * 100.0,
        v.energy_mape * 100.0,
        v.queries
    );

    let counter = Arc::new(CountingDevice { inner: device, queries: AtomicU64::new(0) });
    let counted = Hadas::with_cost_model(
        space.clone(),
        exact.accuracy().clone(),
        counter.clone() as Arc<dyn CostModel>,
    );
    let proxied = Hadas::with_cost_model(space.clone(), exact.accuracy().clone(), Arc::new(proxy));

    let mut runs = Vec::new();
    for (mode, hadas, fixed_queries) in [
        ("hw-in-the-loop", &counted, None),
        ("proxy", &proxied, Some(3_000u64 + 100)), // fit + validation draws
    ] {
        counter.queries.store(0, Ordering::Relaxed);
        let start = Instant::now(); // lint:allow(det-wall-clock) printed, never recorded
        let outcome = hadas.run(cfg)?;
        let wall_ms = start.elapsed().as_millis();
        let device_queries =
            fixed_queries.unwrap_or_else(|| counter.queries.load(Ordering::Relaxed));
        let hv = true_front_hv(exact, &outcome, cfg)?;
        println!(
            "{mode}: {device_queries} device queries, wall {wall_ms} ms, {} pareto models, true-front HV {hv:.4}",
            outcome.pareto_models().len()
        );
        runs.push(ProxyRun {
            mode: mode.to_string(),
            device_queries,
            true_front_hv: hv,
            pareto_models: outcome.pareto_models().len(),
        });
    }
    let retained = runs[1].true_front_hv / runs[0].true_front_hv;
    println!();
    println!(
        "proxy-driven search retains {:.0}% of the hw-in-the-loop front quality",
        retained * 100.0
    );
    println!("(paper: proxy cuts search time from 2-3 GPU days to ~1 with comparable results)");
    Ok(runs)
}

#[derive(Debug, Serialize)]
struct PruningRun {
    prune_fraction: f64,
    ioe_invocations: usize,
    joint_models: usize,
    front_hv: f64,
}

fn pruning_run(prune_fraction: f64, outcome: &OoeOutcome) -> PruningRun {
    let ioe_invocations = outcome.backbones().iter().filter(|b| b.ioe.is_some()).count();
    let models = outcome.pareto_models();
    let axes: Vec<Vec<f64>> = models
        .iter()
        .map(|m| vec![m.dynamic.energy_gain, m.dynamic.accuracy_pct / 100.0])
        .collect();
    PruningRun {
        prune_fraction,
        ioe_invocations,
        joint_models: models.len(),
        front_hv: hypervolume_2d(&front_points(&axes), &[-0.5, 0.0]),
    }
}

/// Ablation: the OOE's early-selection pruning (`P' ⊂ P`) on the TX2
/// Pascal GPU. Compares a pruned run (the paper's design) against running
/// an IOE for *every* population member, at the same per-IOE budget,
/// reporting final-front quality and the number of IOE invocations (the
/// dominant search cost). The row at the run's own prune fraction reads
/// the shared joint search.
pub(crate) fn ablation_pruning(runs: &[PaperRun]) -> Result<impl Serialize, Box<dyn Error>> {
    let run = tx2(runs)?;
    println!("ABLATION — OOE early-selection pruning (TX2 Pascal GPU)");
    println!(
        "{:>15} {:>17} {:>13} {:>10}",
        "prune fraction", "IOE invocations", "joint models", "front HV"
    );
    println!("{}", "-".repeat(60));
    let mut rows = Vec::new();
    for f in [0.25, 0.5, 1.0] {
        let r = if f == run.config.prune_fraction {
            pruning_run(f, &run.outcome)
        } else {
            let mut cfg = run.config.clone();
            cfg.prune_fraction = f;
            pruning_run(f, &run.hadas.run(&cfg)?)
        };
        println!(
            "{:>15.2} {:>17} {:>13} {:>10.4}",
            r.prune_fraction, r.ioe_invocations, r.joint_models, r.front_hv
        );
        rows.push(r);
    }
    let pruned = &rows[0];
    let full = &rows[2];
    println!();
    println!(
        "pruning cuts IOE invocations by {:.0}% while retaining {:.0}% of the full-front HV",
        (1.0 - pruned.ioe_invocations as f64 / full.ioe_invocations as f64) * 100.0,
        pruned.front_hv / full.front_hv * 100.0
    );
    Ok(rows)
}

#[derive(Debug, Serialize)]
struct RandomAblation {
    seed: u64,
    nsga_hv: f64,
    random_hv: f64,
    nsga_rod: f64,
    random_rod: f64,
}

/// Ablation: the NSGA-II inner engine vs pure random search at equal
/// evaluation budgets on a3 (TX2 Pascal GPU, seeds 11–55) — the standard
/// NAS sanity check, reported as hypervolume and ratio of dominance.
pub(crate) fn ablation_random(runs: &[PaperRun]) -> Result<impl Serialize, Box<dyn Error>> {
    let run = tx2(runs)?;
    let (hadas, cfg) = (&run.hadas, &run.config);
    let subnet = hadas.space().decode(&baselines::baseline_genome(3))?;
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
        let nsga = hadas.run_ioe(&subnet, cfg, seed)?;
        let random = hadas.run_ioe_random(&subnet, cfg, seed)?;
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
    Ok(rows)
}
