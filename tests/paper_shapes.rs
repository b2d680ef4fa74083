//! Shape tests: the paper's headline qualitative results must hold at a
//! reduced search budget. These guard the calibration of the accuracy
//! surrogate and the hardware simulator against regressions.

use hadas_suite::core::{Hadas, HadasConfig};
use hadas_suite::evo::{hypervolume_2d, pareto_indices, ratio_of_dominance};
use hadas_suite::hw::{DeviceModel, HwTarget};
use hadas_suite::space::baselines;

fn front(axes: &[Vec<f64>]) -> Vec<Vec<f64>> {
    pareto_indices(axes).into_iter().map(|i| axes[i].clone()).collect()
}

/// Table III anchors: a0 and a6 static energies on the TX2 Pascal GPU.
#[test]
fn tx2_energy_anchors_hold() {
    let dev = DeviceModel::for_target(HwTarget::Tx2PascalGpu);
    let nets =
        baselines::attentive_nas_baselines(&hadas_suite::space::SearchSpace::attentive_nas())
            .expect("baselines");
    let dvfs = dev.default_dvfs();
    let a0 = dev.subnet_cost(&nets[0].1, &dvfs).expect("valid").energy_mj();
    let a6 = dev.subnet_cost(&nets[6].1, &dvfs).expect("valid").energy_mj();
    assert!((a0 - 173.78).abs() / 173.78 < 0.15, "a0 {a0} mJ vs paper 173.78");
    assert!((a6 - 335.48).abs() / 335.48 < 0.15, "a6 {a6} mJ vs paper 335.48");
}

/// Fig. 5 top: the OOE front dominates most baselines, including a6.
#[test]
fn ooe_front_dominates_baselines() {
    let hadas = Hadas::for_target(HwTarget::AgxVoltaGpu);
    let outcome = hadas.run(&HadasConfig::mid()).expect("runs");
    let front: Vec<Vec<f64>> =
        outcome.static_pareto().iter().map(|b| b.fitness.to_plot_axes()).collect();
    let mut dominated = 0;
    for (name, subnet) in baselines::attentive_nas_baselines(hadas.space()).expect("baselines") {
        let cost =
            hadas.device().subnet_cost(&subnet, &hadas.device().default_dvfs()).expect("valid");
        let p = vec![hadas.accuracy().backbone_accuracy(&subnet), -cost.energy_mj()];
        if front.iter().any(|f| hadas_suite::evo::dominates(f, &p)) {
            dominated += 1;
        } else if name == "a6" {
            panic!("a6 must be dominated by the OOE front at this budget");
        }
    }
    assert!(dominated >= 4, "only {dominated}/7 baselines dominated");
}

/// Fig. 5 bottom + Fig. 6: HADAS's inner-search front beats the optimized
/// baselines on hypervolume and ratio of dominance.
#[test]
fn ioe_front_beats_optimized_baselines() {
    let cfg = HadasConfig::mid();
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let outcome = hadas.run(&cfg).expect("runs");
    let mut hadas_axes = Vec::new();
    for b in outcome.backbones() {
        if let Some(ioe) = &b.ioe {
            hadas_axes.extend(ioe.history.iter().map(|s| s.fitness.to_plot_axes()));
        }
    }
    let mut base_axes = Vec::new();
    for (i, (_, subnet)) in baselines::attentive_nas_baselines(hadas.space())
        .expect("baselines")
        .into_iter()
        .enumerate()
    {
        let ioe = hadas.run_ioe(&subnet, &cfg, 1000 + i as u64).expect("IOE runs");
        base_axes.extend(ioe.history.iter().map(|s| s.fitness.to_plot_axes()));
    }
    let hf = front(&hadas_axes);
    let bf = front(&base_axes);
    let reference = [-0.5, 0.0];
    assert!(
        hypervolume_2d(&hf, &reference) > hypervolume_2d(&bf, &reference),
        "HADAS must win hypervolume"
    );
    assert!(
        ratio_of_dominance(&hf, &bf) > ratio_of_dominance(&bf, &hf),
        "HADAS must win ratio of dominance"
    );
}

/// Fig. 1 / Table III: energy improves monotonically across the three
/// optimisation stages (Static ≥ Dyn ≥ Dyn w/HW) for the searched models.
#[test]
fn optimisation_stages_are_monotone() {
    let cfg = HadasConfig::mid();
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let outcome = hadas.run(&cfg).expect("runs");
    let mut checked = 0;
    for b in outcome.backbones() {
        let Some(ioe) = &b.ioe else { continue };
        let static_energy = b.fitness.energy_mj;
        for s in &ioe.pareto {
            // Dyn w/HW: the solution's own energy. It must beat static.
            if s.fitness.energy_gain > 0.0 {
                assert!(s.fitness.energy_mj < static_energy + 1e-9);
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "at least some solutions must show stage gains");
}

/// Fig. 7: the dissimilarity regularizer shifts the search toward
/// dissimilar exits (higher RoD against the unregularised run).
#[test]
fn dissimilarity_regularizer_helps() {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let subnet = hadas.space().decode(&baselines::baseline_genome(3)).expect("a3 decodes");
    let cfg = HadasConfig::mid();
    // Individual runs are noisy (search-time N_i estimates are), so the
    // claim is statistical: averaged over ten seeds, the regularised fronts
    // dominate the unregularised ones more than vice versa. Five seeds is
    // not enough to separate the two conditions reliably.
    let mut rod_with = 0.0;
    let mut rod_without = 0.0;
    for seed in [41u64, 42, 43, 44, 45, 46, 47, 48, 49, 50] {
        let with =
            hadas.run_ioe(&subnet, &cfg.clone().with_dissimilarity(true, 0.5), seed).expect("runs");
        let without = hadas
            .run_ioe(&subnet, &cfg.clone().with_dissimilarity(false, 0.0), seed)
            .expect("runs");
        let wf = front(&with.history.iter().map(|s| s.fitness.to_plot_axes()).collect::<Vec<_>>());
        let of =
            front(&without.history.iter().map(|s| s.fitness.to_plot_axes()).collect::<Vec<_>>());
        rod_with += ratio_of_dominance(&wf, &of);
        rod_without += ratio_of_dominance(&of, &wf);
    }
    assert!(
        rod_with >= rod_without,
        "dissimilarity should improve dominance on average: {rod_with} vs {rod_without}"
    );
}
