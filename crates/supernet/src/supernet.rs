use crate::{
    SharedConv2d, SharedLinear, SubnetChoice, SupernetConfig, SupernetError, TrainOptions,
};
use hadas_dataset::SyntheticDataset;
use hadas_nn::{
    accuracy, nll_loss, train_guarded, Layer, LoopPlan, Param, Relu, TrainTelemetry, Trainable,
};
use hadas_tensor::Tensor;
use rand::Rng;

/// The elastic micro supernet: a stem, per-stage stacks of shared
/// convolutions with elastic width and depth, global pooling, and a
/// shared classifier.
///
/// Every subnet ([`SubnetChoice`]) runs on *slices* of the same parameter
/// tensors, so training any subnet moves weights every other subnet uses —
/// the once-for-all property.
#[derive(Debug)]
pub struct MicroSupernet {
    config: SupernetConfig,
    stem: SharedConv2d,
    stages: Vec<Vec<SharedConv2d>>,
    relus: Vec<Vec<Relu>>,
    stem_relu: Relu,
    pool: hadas_nn::GlobalAvgPool,
    classifier: SharedLinear,
}

/// Outcome of supernet training.
#[derive(Debug, Clone, PartialEq)]
pub struct SupernetTrainReport {
    /// Mean loss over the final epoch (max-subnet passes).
    pub final_loss: f32,
    /// Optimizer steps taken.
    pub steps: usize,
}

impl MicroSupernet {
    /// Builds a supernet with randomly initialised shared weights.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError::InvalidChoice`] for inconsistent configs.
    pub fn new<R: Rng>(config: &SupernetConfig, rng: &mut R) -> Result<Self, SupernetError> {
        config.validate()?;
        let stem = SharedConv2d::new(rng, config.in_channels, config.max_widths[0], config.kernel);
        let mut stages = Vec::with_capacity(config.stages());
        let mut relus = Vec::with_capacity(config.stages());
        for s in 0..config.stages() {
            let c_in_max = if s == 0 { config.max_widths[0] } else { config.max_widths[s - 1] };
            let mut layers = Vec::with_capacity(config.max_depths[s]);
            let mut stage_relus = Vec::with_capacity(config.max_depths[s]);
            for l in 0..config.max_depths[s] {
                let cin = if l == 0 { c_in_max } else { config.max_widths[s] };
                layers.push(SharedConv2d::new(rng, cin, config.max_widths[s], config.kernel));
                stage_relus.push(Relu::new());
            }
            stages.push(layers);
            relus.push(stage_relus);
        }
        let last_width = *config.max_widths.last().ok_or_else(|| {
            SupernetError::InvalidChoice("supernet config must declare at least one stage".into())
        })?;
        let classifier = SharedLinear::new(rng, last_width, config.classes);
        Ok(MicroSupernet {
            config: config.clone(),
            stem,
            stages,
            relus,
            stem_relu: Relu::new(),
            pool: hadas_nn::GlobalAvgPool::new(),
            classifier,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SupernetConfig {
        &self.config
    }

    /// Forward pass of one subnet: `x` is `(n, in_channels, s, s)`.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError::InvalidChoice`] for invalid choices or
    /// propagates tensor errors.
    pub fn forward(&mut self, x: &Tensor, choice: &SubnetChoice) -> Result<Tensor, SupernetError> {
        choice.validate(&self.config)?;
        // Stem: always present, sliced to the first stage's active width.
        let mut h = self.stem.forward_slice(x, choice.widths[0])?;
        h = self.stem_relu.forward(&h).map_err(SupernetError::Nn)?;
        for s in 0..self.config.stages() {
            for l in 0..choice.depths[s] {
                h = self.stages[s][l].forward_slice(&h, choice.widths[s])?;
                h = self.relus[s][l].forward(&h).map_err(SupernetError::Nn)?;
            }
        }
        let pooled = self.pool.forward(&h).map_err(SupernetError::Nn)?;
        self.classifier.forward_slice(&pooled)
    }

    /// Backward pass for the subnet used in the preceding forward call.
    ///
    /// # Errors
    ///
    /// Returns an error if the forward cache is missing or shapes clash.
    pub fn backward(
        &mut self,
        grad_logits: &Tensor,
        choice: &SubnetChoice,
    ) -> Result<(), SupernetError> {
        let mut g = self.classifier.backward_slice(grad_logits)?;
        g = self.pool.backward(&g).map_err(SupernetError::Nn)?;
        for s in (0..self.config.stages()).rev() {
            for l in (0..choice.depths[s]).rev() {
                g = self.relus[s][l].backward(&g).map_err(SupernetError::Nn)?;
                g = self.stages[s][l].backward_slice(&g)?;
            }
        }
        g = self.stem_relu.backward(&g).map_err(SupernetError::Nn)?;
        // The images' gradient is never read: the stem needs only its own.
        self.stem.backward_params_slice(&g)
    }

    /// Zeroes every shared gradient.
    pub fn zero_grad(&mut self) {
        self.stem.zero_grad();
        for stage in &mut self.stages {
            for layer in stage {
                layer.zero_grad();
            }
        }
        self.classifier.zero_grad();
    }

    /// Total shared parameter count.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Trains the supernet with the OFA sandwich rule: each step runs the
    /// **max** subnet, the **min** subnet, and one **random** subnet on
    /// the same batch, then applies the accumulated shared gradients.
    ///
    /// Equivalent to [`MicroSupernet::train_with`] under monitor-only
    /// defaults ([`TrainOptions::new`]) — bit-identical to the
    /// historical unguarded loop on healthy data.
    ///
    /// # Errors
    ///
    /// Propagates batching and NN errors.
    pub fn train(
        &mut self,
        data: &SyntheticDataset,
        epochs: usize,
        batch: usize,
        lr: f32,
        seed: u64,
    ) -> Result<SupernetTrainReport, SupernetError> {
        self.train_with(data, &TrainOptions::new(epochs, batch, lr, seed)).map(|(r, _)| r)
    }

    /// Divergence-guarded sandwich-rule training: per-sample validation
    /// quarantines poisoned inputs up front, then the shared guarded loop
    /// ([`train_guarded`]) runs the epochs — a [`hadas_nn::TrainGuard`]
    /// on every loss and gradient, epoch-boundary snapshots (to disk when
    /// `opts.guarded.checkpoint` is set), and rollback to the last good
    /// epoch with the learning rate backed off.
    ///
    /// The kill/resume contract (pinned by `tests/chaos.rs`): a run
    /// stopped at epoch `k` via `stop_after_epochs` and resumed with
    /// `resume` produces a **byte-identical** report and trained weights
    /// to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Propagates batching, NN, and checkpoint errors; refuses a learning
    /// rate that is not finite and positive and a batch size that leaves
    /// an epoch without a full batch; returns [`SupernetError::Nn`]
    /// wrapping [`hadas_nn::NnError::Numeric`] once the rollback budget is
    /// exhausted.
    pub fn train_with(
        &mut self,
        data: &SyntheticDataset,
        opts: &TrainOptions,
    ) -> Result<(SupernetTrainReport, TrainTelemetry), SupernetError> {
        // Per-sample validation: quarantine detectably-poisoned samples
        // before they reach a gradient. A no-op (and a pure copy) on
        // clean data.
        let (clean, quarantined) = if opts.validate_data {
            data.quarantine_train(opts.max_abs_pixel)
        } else {
            (data.clone(), Vec::new())
        };
        let train_size = clean.train().len();
        let plan = LoopPlan {
            epochs: opts.epochs,
            batches: train_size.checked_div(opts.batch).unwrap_or(0),
            lr: opts.lr,
            seed: opts.seed,
            fingerprint: opts.fingerprint(&self.config, train_size),
        };
        let max_choice = SubnetChoice::max(&self.config);
        let min_choice = SubnetChoice::min(&self.config);
        let run = train_guarded::<_, SupernetError>(self, &plan, &opts.guarded, |net, rng, b| {
            let (images, labels) = clean
                .train_batch(b * opts.batch, opts.batch)
                .map_err(|e| SupernetError::InvalidChoice(e.to_string()))?;
            net.zero_grad();
            // Max subnet pass (anchor of the sandwich rule).
            let logits = net.forward(&images, &max_choice)?;
            let (loss, grad) = nll_loss(&logits, &labels)?;
            net.backward(&grad, &max_choice)?;
            // Min subnet anchor.
            let logits_min = net.forward(&images, &min_choice)?;
            let (_, grad_min) = nll_loss(&logits_min, &labels)?;
            net.backward(&grad_min, &min_choice)?;
            // One random subnet pass on the same batch.
            let sampled = SubnetChoice::sample(&net.config, rng);
            let logits_s = net.forward(&images, &sampled)?;
            let (_, grad_s) = nll_loss(&logits_s, &labels)?;
            net.backward(&grad_s, &sampled)?;
            Ok(loss)
        })?;
        let mut telemetry = run.telemetry;
        telemetry.quarantined = quarantined.len();
        telemetry.quarantined_indices = quarantined;
        Ok((SupernetTrainReport { final_loss: run.final_loss, steps: run.steps }, telemetry))
    }

    /// Top-1 accuracy of one subnet on the test split.
    ///
    /// # Errors
    ///
    /// Propagates batching and NN errors.
    pub fn evaluate(
        &mut self,
        data: &SyntheticDataset,
        choice: &SubnetChoice,
    ) -> Result<f32, SupernetError> {
        let n = data.test().len();
        let (images, labels) =
            data.test_batch(0, n).map_err(|e| SupernetError::InvalidChoice(e.to_string()))?;
        let logits = self.forward(&images, choice)?;
        accuracy(&logits, &labels).map_err(SupernetError::Nn)
    }
}

impl Trainable for MicroSupernet {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.stem.params_mut();
        for stage in &mut self.stages {
            for layer in stage {
                params.extend(layer.params_mut());
            }
        }
        params.extend(self.classifier.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_dataset::{DatasetConfig, DifficultyDistribution};
    use hadas_nn::{Sgd, WithLoopOptions};
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_data() -> SyntheticDataset {
        let mut cfg = DatasetConfig::small();
        cfg.classes = SupernetConfig::tiny().classes;
        cfg.train_size = 96;
        cfg.test_size = 48;
        // Easy data so a micro net learns in a few epochs.
        cfg.difficulty = DifficultyDistribution::new(1.2, 6.0).expect("valid shapes");
        SyntheticDataset::generate(&cfg, 42).expect("valid config")
    }

    #[test]
    fn every_subnet_choice_produces_class_logits() {
        let cfg = SupernetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let x = Tensor::ones(&[2, 3, cfg.image_size, cfg.image_size]);
        for depths in [[1, 1], [2, 1], [1, 2], [2, 2]] {
            for &w0 in &cfg.width_choices[0] {
                for &w1 in &cfg.width_choices[1] {
                    let choice = SubnetChoice { depths: depths.to_vec(), widths: vec![w0, w1] };
                    let y = net.forward(&x, &choice).unwrap();
                    assert_eq!(y.shape().dims(), &[2, cfg.classes]);
                }
            }
        }
    }

    #[test]
    fn invalid_choices_are_rejected() {
        let cfg = SupernetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let x = Tensor::ones(&[1, 3, cfg.image_size, cfg.image_size]);
        let bad = SubnetChoice { depths: vec![3, 1], widths: vec![6, 8] };
        assert!(net.forward(&x, &bad).is_err());
        let bad_w = SubnetChoice { depths: vec![1, 1], widths: vec![7, 8] };
        assert!(net.forward(&x, &bad_w).is_err());
    }

    #[test]
    fn training_the_supernet_trains_every_subnet() {
        // The once-for-all property: after sandwich training, the max
        // subnet AND the min subnet (never explicitly anchored) both beat
        // chance decisively on held-out data.
        let cfg = SupernetConfig::tiny();
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let chance = 1.0 / cfg.classes as f32;
        let before_max = net.evaluate(&data, &SubnetChoice::max(&cfg)).unwrap();
        // 16 epochs (not 8): the min subnet is never explicitly anchored, so
        // its accuracy clears the 2x-chance bar only once sandwich training
        // has propagated enough signal into the shared slices. With the
        // pinned seeds this outcome is deterministic.
        net.train(&data, 16, 16, 0.05, 9).unwrap();
        let after_max = net.evaluate(&data, &SubnetChoice::max(&cfg)).unwrap();
        let after_min = net.evaluate(&data, &SubnetChoice::min(&cfg)).unwrap();
        assert!(after_max > chance * 2.0, "max subnet {after_max} vs chance {chance}");
        assert!(after_min > chance * 2.0, "min subnet {after_min} vs chance {chance}");
        assert!(after_max >= before_max, "training must not hurt the anchor");
    }

    #[test]
    fn shared_weights_couple_subnets() {
        // Training only via forward/backward on the max subnet must change
        // the *min* subnet's predictions (they share parameters).
        let cfg = SupernetConfig::tiny();
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let min_choice = SubnetChoice::min(&cfg);
        let (images, labels) = data.train_batch(0, 16).unwrap();
        let before = net.forward(&images, &min_choice).unwrap();
        // One max-subnet step.
        let max_choice = SubnetChoice::max(&cfg);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        net.zero_grad();
        let logits = net.forward(&images, &max_choice).unwrap();
        let (_, grad) = nll_loss(&logits, &labels).unwrap();
        net.backward(&grad, &max_choice).unwrap();
        opt.step(net.params_mut());
        let after = net.forward(&images, &min_choice).unwrap();
        assert_ne!(before, after, "shared weights must couple the subnets");
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = SupernetConfig::tiny();
        let data = tiny_data();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
            net.train(&data, 2, 16, 0.05, seed).unwrap();
            net.evaluate(&data, &SubnetChoice::max(&cfg)).unwrap()
        };
        assert_eq!(run(7), run(7));
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hadas-supernet-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn train_with_monitor_defaults_matches_plain_train() {
        let cfg = SupernetConfig::tiny();
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(5);
        let mut a = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let ra = a.train(&data, 3, 16, 0.05, 9).unwrap();
        let (rb, t) = b.train_with(&data, &TrainOptions::new(3, 16, 0.05, 9)).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(t.quarantined, 0);
        assert_eq!(t.rollbacks, 0);
        let ea = a.evaluate(&data, &SubnetChoice::max(&cfg)).unwrap();
        let eb = b.evaluate(&data, &SubnetChoice::max(&cfg)).unwrap();
        assert_eq!(ea.to_bits(), eb.to_bits());
    }

    #[test]
    fn kill_at_epoch_and_resume_is_byte_identical() {
        let cfg = SupernetConfig::tiny();
        let data = tiny_data();
        let build = || {
            let mut rng = StdRng::seed_from_u64(5);
            MicroSupernet::new(&cfg, &mut rng).unwrap()
        };
        // Uninterrupted run.
        let mut full = build();
        let (full_report, _) = full.train_with(&data, &TrainOptions::new(6, 16, 0.05, 9)).unwrap();
        // Killed at epoch 3.
        let path = scratch("kill-resume");
        std::fs::remove_file(&path).ok();
        let mut killed = build();
        let (partial, t1) = killed
            .train_with(
                &data,
                &TrainOptions::new(6, 16, 0.05, 9)
                    .with_checkpoint(path.clone(), false)
                    .stop_after(3),
            )
            .unwrap();
        assert!(t1.interrupted);
        assert!(partial.steps < full_report.steps);
        // Resumed in a fresh process-equivalent (fresh net, fresh RNG).
        let mut resumed = build();
        let (resumed_report, t2) = resumed
            .train_with(
                &data,
                &TrainOptions::new(6, 16, 0.05, 9).with_checkpoint(path.clone(), true),
            )
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t2.resumed_from_epoch, Some(3));
        assert_eq!(resumed_report, full_report, "resume must splice the exact trajectory");
        for choice in [SubnetChoice::max(&cfg), SubnetChoice::min(&cfg)] {
            let a = full.evaluate(&data, &choice).unwrap();
            let b = resumed.evaluate(&data, &choice).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "evaluations must be byte-identical");
        }
    }

    #[test]
    fn resume_refuses_a_mismatched_fingerprint() {
        let cfg = SupernetConfig::tiny();
        let data = tiny_data();
        let path = scratch("stale");
        std::fs::remove_file(&path).ok();
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        net.train_with(
            &data,
            &TrainOptions::new(4, 16, 0.05, 9).with_checkpoint(path.clone(), false).stop_after(2),
        )
        .unwrap();
        // Different seed => different fingerprint => refuse to splice.
        let err = net.train_with(
            &data,
            &TrainOptions::new(4, 16, 0.05, 10).with_checkpoint(path.clone(), true),
        );
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, Err(SupernetError::Nn(hadas_nn::NnError::Checkpoint(_)))));
    }

    #[test]
    fn poisoned_data_is_quarantined_and_training_stays_finite() {
        let cfg = SupernetConfig::tiny();
        let mut dcfg = hadas_dataset::DatasetConfig::small();
        dcfg.classes = cfg.classes;
        dcfg.train_size = 192;
        dcfg.test_size = 48;
        let data = SyntheticDataset::generate(&dcfg, 42).unwrap();
        let chaos = hadas_dataset::CorruptionConfig::chaos(13);
        let (poisoned, report) = data.with_corruption(&chaos).unwrap();
        assert!(report.detectable() > 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let opts = TrainOptions::new(3, 16, 0.05, 9).with_guard(hadas_nn::GuardConfig::default());
        let (train_report, telemetry) = net.train_with(&poisoned, &opts).unwrap();
        assert_eq!(telemetry.quarantined, report.detectable());
        assert!(telemetry.quarantined > 0);
        assert!(train_report.final_loss.is_finite());
    }

    #[test]
    fn divergence_rolls_back_with_lr_backoff_and_finishes_finite() {
        // A too-hot learning rate spikes the loss within the first
        // epochs; the guard must catch it, roll back to the last good
        // epoch, and back the LR off until training survives. The
        // trajectory is deterministic for the pinned seeds.
        let cfg = SupernetConfig::tiny();
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let guard =
            hadas_nn::GuardConfig { max_grad_norm: Some(10.0), spike_window: 4, spike_factor: 2.0 };
        let mut opts = TrainOptions::new(3, 16, 5.0, 9).with_guard(guard);
        opts.guarded.max_rollbacks = 12;
        opts.guarded.lr_backoff = 4.0;
        let (report, telemetry) = net.train_with(&data, &opts).unwrap();
        assert!(telemetry.rollbacks > 0, "lr=5 must trip the spike guard at least once");
        assert!(!telemetry.anomalies.is_empty());
        assert!(report.final_loss.is_finite());
        // The exact rollback trajectory: a change to the restore, the
        // backoff or the guard's step accounting moves these values.
        assert_eq!(
            (telemetry.rollbacks, telemetry.clipped_steps, report.steps),
            (1, 1, 18),
            "{telemetry:?}"
        );
        assert_eq!(telemetry.anomalies, ["loss spike 10.042907 (baseline 4.6608887) at step 11"]);
        assert_eq!(report.final_loss.to_bits(), 1_076_108_993, "loss {}", report.final_loss);
    }

    #[test]
    fn exhausted_rollback_budget_escalates_a_typed_anomaly() {
        // Same too-hot setup as the rollback test, but with a zero
        // rollback budget: the first tripped guard must escalate the
        // typed anomaly instead of silently continuing.
        let cfg = SupernetConfig::tiny();
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        let guard =
            hadas_nn::GuardConfig { max_grad_norm: Some(10.0), spike_window: 4, spike_factor: 2.0 };
        let mut opts = TrainOptions::new(3, 16, 5.0, 9).with_guard(guard);
        opts.guarded.max_rollbacks = 0;
        let err = net.train_with(&data, &opts);
        assert!(matches!(
            err,
            Err(SupernetError::Nn(hadas_nn::NnError::Numeric(
                hadas_nn::NumericAnomaly::LossSpike { .. }
            )))
        ));
    }

    #[test]
    fn param_count_matches_architecture() {
        let cfg = SupernetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = MicroSupernet::new(&cfg, &mut rng).unwrap();
        // stem 3->12 + s0: 12->12 ×2 + s1 first 12->16, second 16->16 + fc 16->6
        let k2 = 9;
        let expected = (3 * 12 * k2 + 12)
            + (12 * 12 * k2 + 12) * 2
            + (12 * 16 * k2 + 16)
            + (16 * 16 * k2 + 16)
            + (16 * 6 + 6);
        assert_eq!(net.param_count(), expected);
    }
}
