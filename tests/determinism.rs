//! Seed-determinism regression test (see DESIGN.md, "Static analysis &
//! invariants").
//!
//! The whole pipeline is driven by splittable seeded RNGs — `hadas-lint`'s
//! `seeded-rng-only` pass forbids every ambient entropy source — so two runs
//! with the same `HadasConfig::seed` must produce *byte-identical* results,
//! not merely statistically similar ones. This test pins that contract at
//! the coarsest observable level: the serialized OOE Pareto front. Golden
//! fingerprints of that front for two seeds also pin its content, which
//! run-to-run and worker-count identity cannot: a change that shifted
//! every front alike would pass those.

use hadas::{Hadas, HadasConfig};
use hadas_hw::HwTarget;

/// `hadas::seal::fingerprint64` of `pareto_json(5)` and `pareto_json(6)`.
const GOLDEN_SEED_5: u64 = 10379453551654270141;
const GOLDEN_SEED_6: u64 = 13705707438066776108;

fn fingerprint(json: &str) -> u64 {
    hadas::seal::fingerprint64(json.as_bytes())
}

/// Run the smoke-test OOE search and serialize its Pareto front with the
/// same JSON shape the `hadas search` CLI writes to `results/`.
fn pareto_json(seed: u64) -> String {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let outcome = hadas
        .run(&HadasConfig::smoke_test().with_seed(seed))
        .expect("smoke-test OOE run must succeed");
    let models: Vec<serde_json::Value> = outcome
        .pareto_models()
        .iter()
        .map(|m| {
            serde_json::json!({
                "genome": m.subnet.genome().genes(),
                "exits": m.placement.positions(),
                "dvfs": {"compute": m.dvfs.compute, "emc": m.dvfs.emc},
                "accuracy_pct": m.dynamic.accuracy_pct,
                "energy_mj": m.dynamic.energy_mj,
                "latency_ms": m.dynamic.latency_ms,
            })
        })
        .collect();
    serde_json::to_string(&serde_json::json!({ "seed": seed, "pareto": models }))
        .expect("pareto front serializes")
}

#[test]
fn same_seed_gives_byte_identical_pareto_fronts() {
    let first = pareto_json(5);
    let second = pareto_json(5);
    assert_eq!(first, second, "two OOE runs with the same seed must serialize to identical bytes");
    // The front must be non-trivial, otherwise the equality above is vacuous.
    assert!(first.contains("\"genome\""), "pareto front should not be empty: {first}");
    assert_eq!(fingerprint(&first), GOLDEN_SEED_5, "seed-5 front moved: {first}");
}

/// `hadas::seal::fingerprint64` of `paper_ioe_bits()`.
const GOLDEN_PAPER_IOE: u64 = 13246582095182317228;

/// One paper-budget inner-engine run (tx2-gpu, baseline a2, seed 3),
/// serialized as the exit positions, DVFS indices and the bits of every
/// fitness field of each history entry and then each Pareto entry. The
/// smoke goldens above run the inner engine at 60 evaluations; this pins
/// its breeding and measurement over a full 3500-evaluation run.
fn paper_ioe_bits() -> Vec<u8> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let subnet = hadas.space().decode(&hadas_space::baselines::baseline_genome(2)).unwrap();
    let outcome = hadas.run_ioe(&subnet, &HadasConfig::paper(), 3).expect("paper-budget IOE run");
    let mut bytes = Vec::new();
    for s in outcome.history.iter().chain(&outcome.pareto) {
        let f = &s.fitness;
        let positions = s.placement.positions();
        let mut words = vec![positions.len()];
        words.extend(positions.iter().chain([&s.dvfs.compute, &s.dvfs.emc]));
        bytes.extend(words.iter().flat_map(|&w| (w as u64).to_le_bytes()));
        let fields = [
            f.exit_quality,
            f.mean_exit_fraction,
            f.energy_gain,
            f.latency_gain,
            f.accuracy_pct,
            f.energy_mj,
            f.latency_ms,
        ];
        bytes.extend(fields.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }
    bytes.extend((outcome.pareto.len() as u64).to_le_bytes());
    bytes
}

#[test]
fn paper_budget_ioe_run_is_pinned() {
    let fingerprint = hadas::seal::fingerprint64(&paper_ioe_bits());
    assert_eq!(fingerprint, GOLDEN_PAPER_IOE, "paper-budget IOE run moved");
}

#[test]
fn different_seeds_explore_differently() {
    // Not a strict requirement of the algorithm, but if two different seeds
    // ever produced byte-identical fronts on the smoke budget, the seed
    // plumbing would almost certainly be broken (e.g. a hard-coded seed).
    let (five, six) = (pareto_json(5), pareto_json(6));
    assert_ne!(five, six, "distinct seeds should differ somewhere");
    assert_eq!(fingerprint(&five), GOLDEN_SEED_5, "seed-5 front moved: {five}");
    assert_eq!(fingerprint(&six), GOLDEN_SEED_6, "seed-6 front moved: {six}");
}
