//! Integration tests for the full bi-level search pipeline, spanning
//! `hadas-space`, `hadas-accuracy`, `hadas-hw`, `hadas-exits`, `hadas-evo`,
//! and the `hadas` core engines.

use hadas_suite::core::{Hadas, HadasConfig};
use hadas_suite::evo::dominates;
use hadas_suite::hw::HwTarget;

fn quick() -> HadasConfig {
    HadasConfig::smoke_test()
}

#[test]
fn joint_search_runs_on_every_hardware_target() {
    for target in HwTarget::ALL {
        let hadas = Hadas::for_target(target);
        let outcome = hadas.run(&quick()).expect("search runs");
        assert!(!outcome.pareto_models().is_empty(), "no models on {target}");
        for m in outcome.pareto_models() {
            assert!(m.dynamic.energy_mj > 0.0);
            assert!((0.0..=100.0).contains(&m.dynamic.accuracy_pct));
            assert!(!m.placement.is_empty());
        }
    }
}

#[test]
fn search_is_deterministic_per_seed_and_sensitive_to_it() {
    let hadas = Hadas::for_target(HwTarget::AgxVoltaGpu);
    let energies = |seed: u64| -> Vec<f64> {
        let outcome = hadas.run(&quick().with_seed(seed)).expect("runs");
        let mut v: Vec<f64> = outcome.pareto_models().iter().map(|m| m.dynamic.energy_mj).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    assert_eq!(energies(5), energies(5), "same seed must reproduce exactly");
    assert_ne!(energies(5), energies(6), "different seeds should explore differently");
}

#[test]
fn final_pareto_is_mutually_non_dominated() {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let outcome = hadas.run(&quick()).expect("runs");
    let axes: Vec<Vec<f64>> = outcome
        .pareto_models()
        .iter()
        .map(|m| vec![m.dynamic.accuracy_pct, -m.dynamic.energy_mj])
        .collect();
    for a in &axes {
        for b in &axes {
            assert!(!dominates(a, b), "pareto set contains a dominated point");
        }
    }
}

#[test]
fn dynamic_models_beat_their_own_static_backbone() {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let outcome = hadas.run(&quick()).expect("runs");
    for m in outcome.pareto_models() {
        // Energy gain is relative to the backbone at default DVFS; the
        // whole point of HADAS is that this is positive.
        assert!(
            m.dynamic.energy_gain > 0.0,
            "pareto model wastes energy: gain {}",
            m.dynamic.energy_gain
        );
        // Ideal-mapping accuracy is never below the backbone's.
        assert!(m.dynamic.accuracy_pct + 1e-9 >= m.static_fitness.accuracy_pct);
    }
}

#[test]
fn promoted_backbones_have_ioe_results_and_others_do_not_waste_them() {
    let hadas = Hadas::for_target(HwTarget::AgxCarmelCpu);
    let outcome = hadas.run(&quick()).expect("runs");
    let with_ioe = outcome.backbones().iter().filter(|b| b.ioe.is_some()).count();
    assert!(with_ioe > 0, "pruning must still promote someone");
    assert!(with_ioe < outcome.backbones().len(), "early selection should prune most backbones");
    for b in outcome.backbones() {
        if let Some(ioe) = &b.ioe {
            assert!(!ioe.pareto.is_empty());
            assert_eq!(ioe.history.len(), quick().ioe.iterations);
        }
    }
}

#[test]
fn hadas_exploits_exit_friendly_backbones() {
    // The searched models should, on average, be more exit-friendly than
    // the fixed baselines — the mechanism behind the paper's Table III.
    // Needs a few OOE generations for the selection pressure to act, so
    // this test runs at a mid-size budget.
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let mid = HadasConfig::mid();
    let cfg = HadasConfig { ooe: mid.ooe, ioe: mid.ioe, ..quick().with_seed(7) };
    let outcome = hadas.run(&cfg).expect("runs");
    let searched: Vec<f64> =
        outcome.pareto_models().iter().map(|m| hadas.accuracy().exitability(&m.subnet)).collect();
    let mean_searched = searched.iter().sum::<f64>() / searched.len() as f64;
    let baselines = hadas_suite::space::baselines::attentive_nas_baselines(hadas.space())
        .expect("baselines decode");
    let mean_base = baselines.iter().map(|(_, s)| hadas.accuracy().exitability(s)).sum::<f64>()
        / baselines.len() as f64;
    assert!(
        mean_searched > mean_base,
        "searched exitability {mean_searched:.2} should exceed baseline {mean_base:.2}"
    );
}
