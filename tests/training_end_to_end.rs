//! End-to-end training integration: the micro NN framework really learns,
//! both on raw synthetic images (`hadas-dataset`) and on simulated
//! backbone features (`hadas-exits`), tying together `hadas-tensor`,
//! `hadas-nn`, `hadas-dataset`, and `hadas-exits`.

use hadas_suite::dataset::{DatasetConfig, DifficultyDistribution, SyntheticDataset};
use hadas_suite::exits::{ExitHead, ExitTrainer, FeatureSimulator};
use hadas_suite::nn::{accuracy, nll_loss, Sgd};
use hadas_suite::supernet::{MicroSupernet, SubnetChoice, SupernetConfig, TrainOptions};
use rand::{rngs::StdRng, SeedableRng};

/// A small CNN (the exit-head architecture applied to raw RGB images)
/// learns to classify easy synthetic samples well above chance.
#[test]
fn cnn_learns_synthetic_images() {
    let mut cfg = DatasetConfig::small();
    cfg.classes = 5;
    cfg.train_size = 120;
    cfg.test_size = 40;
    // Easy-skewed difficulty so a tiny model can learn quickly.
    cfg.difficulty = DifficultyDistribution::new(1.2, 6.0).expect("valid shape");
    let data = SyntheticDataset::generate(&cfg, 99).expect("valid config");

    let mut rng = StdRng::seed_from_u64(1);
    let mut head = ExitHead::new(&mut rng, 3, cfg.image_size, cfg.classes).expect("valid head");
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);

    let batch = 24;
    for epoch in 0..6 {
        for start in (0..cfg.train_size - batch + 1).step_by(batch) {
            let (images, labels) = data.train_batch(start, batch).expect("in range");
            let logits = head.forward(&images).expect("forward");
            let (_, grad) = nll_loss(&logits, &labels).expect("valid labels");
            head.net_mut().zero_grad();
            head.backward(&grad).expect("backward");
            opt.step(head.net_mut().params_mut());
        }
        let _ = epoch;
    }

    head.set_training(false);
    let (images, labels) = data.test_batch(0, cfg.test_size).expect("in range");
    let logits = head.forward(&images).expect("forward");
    let acc = accuracy(&logits, &labels).expect("valid");
    assert!(acc > 0.5, "test accuracy {acc} should be well above chance (0.2)");
}

/// The exit trainer's learned accuracy tracks the simulator's capability:
/// a capability sweep must produce a monotone accuracy trend.
#[test]
fn trained_exit_accuracy_tracks_capability() {
    let classes = 8;
    let difficulty = DifficultyDistribution::default();
    let mut accs = Vec::new();
    for (i, capability) in [0.25f64, 0.55, 0.9].into_iter().enumerate() {
        let sim = FeatureSimulator::new(5, classes, 10, 4, capability);
        let mut rng = StdRng::seed_from_u64(60 + i as u64);
        let mut head = ExitHead::new(&mut rng, 10, 4, classes).expect("valid head");
        let trainer = ExitTrainer::new(classes, difficulty, 0.9).with_schedule(4, 16, 16);
        let report = trainer.train(&mut head, &sim, 7).expect("training runs");
        accs.push(report.test_accuracy);
    }
    assert!(accs[2] > accs[0] + 0.1, "deep-prefix exits must clearly beat shallow ones: {accs:?}");
}

/// Knowledge distillation from the simulated final classifier must not
/// hurt relative to pure NLL (on this easy setup it typically helps).
#[test]
fn hybrid_loss_trains_successfully() {
    let classes = 6;
    let sim = FeatureSimulator::new(3, classes, 8, 4, 0.8);
    let difficulty = DifficultyDistribution::default();
    let mut rng = StdRng::seed_from_u64(8);
    let mut head = ExitHead::new(&mut rng, 8, 4, classes).expect("valid head");
    let trainer = ExitTrainer::new(classes, difficulty, 0.85).with_schedule(5, 16, 16);
    let report = trainer.train(&mut head, &sim, 3).expect("training runs");
    assert!(report.final_loss.is_finite());
    assert!(report.test_accuracy > 0.45, "accuracy {}", report.test_accuracy);
}

/// Golden bits of one guarded supernet training call on the benchmark's
/// `train` set-up: `SupernetConfig::tiny`, dataset and initial weights from
/// seed 1 with 96 train / 48 test samples, one epoch at batch 16 and lr
/// 0.05 with sampler seed 7, then the max-subnet test accuracy. A kernel
/// change that reorders any float sum in the conv, linear or pooling
/// layers moves these bits.
#[test]
fn supernet_training_bits_are_pinned() {
    let net_cfg = SupernetConfig::tiny();
    let mut cfg = DatasetConfig::small();
    cfg.classes = net_cfg.classes;
    cfg.image_size = net_cfg.image_size;
    cfg.train_size = 96;
    cfg.test_size = 48;
    let data = SyntheticDataset::generate(&cfg, 1).expect("valid config");
    let mut net = MicroSupernet::new(&net_cfg, &mut StdRng::seed_from_u64(1)).expect("valid net");
    let (report, _) =
        net.train_with(&data, &TrainOptions::new(1, 16, 0.05, 7)).expect("training runs");
    let acc = net.evaluate(&data, &SubnetChoice::max(&net_cfg)).expect("evaluation runs");
    assert_eq!(
        (report.final_loss.to_bits(), report.steps, acc.to_bits()),
        (1_072_097_951, 6, 1_040_187_392),
        "loss {} acc {acc}",
        report.final_loss
    );
}

/// Golden bits of one one-head exit training call: an 8-channel 4×4
/// feature simulator of capability 0.5 (seed 3) over 6 classes, a head
/// from seed 8, three epochs of 12 batches of 16 at the trainer's default
/// lr, training seed 3. Any change to the draw order (samples, features,
/// teacher), the hybrid loss or the guarded loop moves these bits.
#[test]
fn exit_training_bits_are_pinned() {
    let classes = 6;
    let sim = FeatureSimulator::new(3, classes, 8, 4, 0.5);
    let mut head = ExitHead::new(&mut StdRng::seed_from_u64(8), 8, 4, classes).expect("valid head");
    let trainer =
        ExitTrainer::new(classes, DifficultyDistribution::default(), 0.85).with_schedule(3, 12, 16);
    let report = trainer.train(&mut head, &sim, 3).expect("training runs");
    assert_eq!(
        (report.final_loss.to_bits(), report.test_accuracy.to_bits(), report.steps),
        (1_073_932_611, 1_062_469_632, 36),
        "loss {} acc {}",
        report.final_loss,
        report.test_accuracy
    );
}
