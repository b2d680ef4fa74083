//! End-to-end benches: the searches behind the paper's tables and figures,
//! timed at a reduced budget. (The printable tables themselves come from
//! the `paper` binary's views over one run per target, see
//! `hadas_bench::paper`; these benches track the cost of the underlying
//! searches so regressions in the engines are visible.)

use criterion::{criterion_group, criterion_main, Criterion};
use hadas::{Hadas, HadasConfig};
use hadas_hw::HwTarget;
use hadas_space::baselines;
use std::hint::black_box;

fn tiny_config() -> HadasConfig {
    let mut cfg = HadasConfig::smoke_test();
    cfg.ooe = hadas::EngineBudget::new(8, 24);
    cfg.ioe = hadas::EngineBudget::new(8, 24);
    cfg
}

/// Fig. 1 / Fig. 5 top / Table III share this: a joint bi-level run.
fn bench_joint_search(c: &mut Criterion) {
    let cfg = tiny_config();
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    for target in [HwTarget::Tx2PascalGpu, HwTarget::AgxVoltaGpu] {
        let hadas = Hadas::for_target(target);
        group.bench_function(format!("fig5_ooe_joint/{}", target.name()), |b| {
            b.iter(|| hadas.run(black_box(&cfg)).expect("joint search runs"))
        });
    }
    group.finish();
}

/// Fig. 5 bottom / Fig. 6 / Fig. 7: inner-engine runs on fixed backbones.
fn bench_ioe_experiments(c: &mut Criterion) {
    let cfg = tiny_config();
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let subnet = hadas.space().decode(&baselines::baseline_genome(3)).expect("a3 decodes");
    group.bench_function("fig5_ioe_optimized_baseline", |b| {
        b.iter(|| hadas.run_ioe(black_box(&subnet), &cfg, 7).expect("IOE runs"))
    });
    let no_dissim = cfg.clone().with_dissimilarity(false, 0.0);
    group.bench_function("fig7_dissim_ablation_arm", |b| {
        b.iter(|| hadas.run_ioe(black_box(&subnet), &no_dissim, 7).expect("IOE runs"))
    });
    group.finish();
}

/// Table II is free to compute; bench the cardinality audit anyway so the
/// space construction stays cheap.
fn bench_table2(c: &mut Criterion) {
    c.bench_function("experiments/table2_space_cardinality", |b| {
        b.iter(|| {
            let space = hadas_space::SearchSpace::attentive_nas();
            black_box(space.cardinality())
        })
    });
}

criterion_group!(benches, bench_joint_search, bench_ioe_experiments, bench_table2);
criterion_main!(benches);
