use crate::{ExitError, ExitHead, FeatureSimulator};
use hadas_dataset::DifficultyDistribution;
use hadas_nn::{
    accuracy, hybrid_exit_loss, seal, GuardConfig, NnError, Sgd, TrainCheckpoint, TrainGuard,
    TrainTelemetry,
};
use hadas_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

/// Outcome of one exit-head training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean hybrid loss over the final epoch.
    pub final_loss: f32,
    /// Top-1 accuracy on the held-out feature batch.
    pub test_accuracy: f32,
    /// Number of optimizer steps taken.
    pub steps: usize,
}

/// Trains exit heads against a frozen-backbone feature simulator with the
/// paper's hybrid loss (eq. (4)): per-exit negative log-likelihood plus
/// knowledge distillation against the final classifier's logits.
///
/// The backbone is frozen by construction — only the [`ExitHead`]'s
/// parameters receive gradients, mirroring the paper's choice to protect
/// the backbone's static accuracy.
#[derive(Debug, Clone)]
pub struct ExitTrainer {
    classes: usize,
    difficulty: DifficultyDistribution,
    final_capability: f64,
    kd_temp: f32,
    lr: f32,
    epochs: usize,
    batch_size: usize,
    train_batches: usize,
}

impl ExitTrainer {
    /// Creates a trainer over `classes` classes where the backbone's final
    /// classifier has capability `final_capability` (the difficulty below
    /// which it is correct).
    pub fn new(classes: usize, difficulty: DifficultyDistribution, final_capability: f64) -> Self {
        ExitTrainer {
            classes,
            difficulty,
            final_capability: final_capability.clamp(0.0, 1.0),
            kd_temp: 4.0,
            lr: 0.05,
            epochs: 3,
            batch_size: 16,
            train_batches: 12,
        }
    }

    /// Overrides the training schedule (epochs, batches per epoch, batch
    /// size) — tests use tiny schedules.
    pub fn with_schedule(mut self, epochs: usize, train_batches: usize, batch_size: usize) -> Self {
        self.epochs = epochs;
        self.train_batches = train_batches;
        self.batch_size = batch_size;
        self
    }

    fn draw_samples<R: Rng>(&self, rng: &mut R, n: usize) -> Vec<(usize, f64)> {
        (0..n).map(|_| (rng.gen_range(0..self.classes), self.difficulty.sample(rng))).collect()
    }

    /// Simulated final-classifier logits for a sample: confidently correct
    /// below the final capability, confidently *wrong* above it (the
    /// teacher also fails on the hardest inputs).
    fn teacher_logits<R: Rng>(
        &self,
        rng: &mut R,
        samples: &[(usize, f64)],
    ) -> Result<Tensor, ExitError> {
        let mut data = vec![0.0f32; samples.len() * self.classes];
        for (i, &(label, d)) in samples.iter().enumerate() {
            let winner = if d <= self.final_capability {
                label
            } else {
                // A wrong class, chosen reproducibly from the row RNG.
                let w = rng.gen_range(0..self.classes.max(2) - 1);
                if w >= label {
                    w + 1
                } else {
                    w
                }
            };
            for c in 0..self.classes {
                data[i * self.classes + c] = if c == winner { 6.0 } else { 0.0 };
            }
        }
        Tensor::from_vec(data, &[samples.len(), self.classes])
            .map_err(|e| ExitError::Nn(NnError::Tensor(e)))
    }

    /// Trains `head` against features from `sim`, returning the report.
    ///
    /// Equivalent to [`ExitTrainer::train_with`] under monitor-only
    /// defaults — bit-identical to the historical unguarded loop on
    /// healthy training.
    ///
    /// # Errors
    ///
    /// Propagates NN framework errors (shape mismatches are construction
    /// bugs surfaced early).
    pub fn train(
        &self,
        head: &mut ExitHead,
        sim: &FeatureSimulator,
        seed: u64,
    ) -> Result<TrainReport, ExitError> {
        self.train_with(head, sim, seed, &ExitTrainOptions::default()).map(|(r, _)| r)
    }

    /// Fingerprint of everything shaping the exit-head trajectory:
    /// trainer schedule and loss parameters, simulator, seed, guard
    /// thresholds, and rollback policy. Checkpoints from a different
    /// fingerprint are refused on resume.
    fn fingerprint(&self, sim: &FeatureSimulator, seed: u64, opts: &ExitTrainOptions) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{self:?}").hash(&mut h);
        format!("{sim:?}").hash(&mut h);
        seed.hash(&mut h);
        format!("{:?}", opts.guard).hash(&mut h);
        opts.max_rollbacks.hash(&mut h);
        opts.lr_backoff.to_bits().hash(&mut h);
        h.finish()
    }

    /// Divergence-guarded exit-head training: a [`TrainGuard`] checks
    /// every hybrid loss and gradient, epoch boundaries snapshot the
    /// resumable state (head params, SGD velocity, RNG stream, learning
    /// rate — to disk when `opts.checkpoint` is set), and a tripped
    /// guard rolls back to the last good epoch with the learning rate
    /// backed off, up to `opts.max_rollbacks` times.
    ///
    /// Kill/resume contract: a run stopped at epoch `k` via
    /// `opts.stop_after_epochs` and resumed with `opts.resume` produces
    /// a **byte-identical** [`TrainReport`] to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Propagates NN and checkpoint errors; returns
    /// [`ExitError::Nn`] wrapping [`NnError::Numeric`] once the
    /// rollback budget is exhausted.
    pub fn train_with(
        &self,
        head: &mut ExitHead,
        sim: &FeatureSimulator,
        seed: u64,
        opts: &ExitTrainOptions,
    ) -> Result<(TrainReport, TrainTelemetry), ExitError> {
        let mut telemetry = TrainTelemetry::default();
        let fingerprint = self.fingerprint(sim, seed, opts);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Sgd::new(self.lr, 0.9, 1e-4);
        let mut guard = TrainGuard::new(opts.guard.clone());
        let mut steps = 0usize;
        let mut epoch = 0usize;
        let mut rollbacks = 0u32;
        let mut last_epoch_loss = 0.0f32;
        head.set_training(true);

        if opts.resume {
            if let Some(path) = &opts.checkpoint {
                if path.exists() {
                    let ckpt: TrainCheckpoint = seal::load(path).map_err(NnError::from)?;
                    ckpt.validate_against(fingerprint)?;
                    let mut params = head.net_mut().params_mut();
                    ckpt.restore(&mut params, &mut opt)?;
                    drop(params);
                    head.net_mut().load_state_buffers(&ckpt.buffers)?;
                    rng = StdRng::from_state(ckpt.rng_state);
                    epoch = ckpt.epoch;
                    steps = ckpt.steps;
                    rollbacks = ckpt.rollbacks;
                    telemetry.resumed_from_epoch = Some(ckpt.epoch);
                }
            }
        }

        let mut last_good = {
            let buffers = head.net_mut().state_buffers();
            let params = head.net_mut().params_mut();
            TrainCheckpoint::capture(
                fingerprint,
                epoch,
                steps,
                rollbacks,
                rng.state(),
                &params,
                &opt,
            )
            .with_buffers(buffers)
        };

        'training: while epoch < self.epochs {
            let mut epoch_loss = 0.0f32;
            for _b in 0..self.train_batches {
                let samples = self.draw_samples(&mut rng, self.batch_size);
                let (feats, labels) = sim.batch(&mut rng, &samples)?;
                let teacher = self.teacher_logits(&mut rng, &samples)?;
                let logits = head.forward(&feats)?;
                let (loss, grads) = hybrid_exit_loss(&[logits], &teacher, &labels, self.kd_temp)?;
                head.net_mut().zero_grad();
                head.backward(&grads[0])?;
                let guarded = guard.observe_loss(loss).and_then(|()| {
                    let mut params = head.net_mut().params_mut();
                    guard.clip_gradients(&mut params).map(|_| ())
                });
                if let Err(anomaly) = guarded {
                    telemetry.anomalies.push(anomaly.to_string());
                    if rollbacks >= opts.max_rollbacks {
                        return Err(ExitError::Nn(NnError::Numeric(anomaly)));
                    }
                    rollbacks += 1;
                    telemetry.rollbacks = rollbacks;
                    let mut params = head.net_mut().params_mut();
                    last_good.restore(&mut params, &mut opt)?;
                    drop(params);
                    head.net_mut().load_state_buffers(&last_good.buffers)?;
                    let new_lr = (opt.lr() / opts.lr_backoff).max(1e-6);
                    opt.set_lr(new_lr);
                    rng = StdRng::from_state(last_good.rng_state);
                    epoch = last_good.epoch;
                    steps = last_good.steps;
                    guard.reset_window();
                    last_good.lr = new_lr;
                    last_good.rollbacks = rollbacks;
                    continue 'training;
                }
                opt.step(head.net_mut().params_mut());
                epoch_loss += loss;
                steps += 1;
            }
            last_epoch_loss = epoch_loss / self.train_batches as f32;
            epoch += 1;
            last_good = {
                let buffers = head.net_mut().state_buffers();
                let params = head.net_mut().params_mut();
                TrainCheckpoint::capture(
                    fingerprint,
                    epoch,
                    steps,
                    rollbacks,
                    rng.state(),
                    &params,
                    &opt,
                )
                .with_buffers(buffers)
            };
            if let Some(path) = &opts.checkpoint {
                seal::write(path, &last_good).map_err(NnError::from)?;
                telemetry.checkpoints_written += 1;
            }
            if let Some(stop) = opts.stop_after_epochs {
                if epoch >= stop && epoch < self.epochs {
                    telemetry.interrupted = true;
                    break 'training;
                }
            }
        }
        telemetry.clipped_steps = guard.clipped_steps();
        // Held-out evaluation.
        head.set_training(false);
        let samples = self.draw_samples(&mut rng, self.batch_size * 4);
        let (feats, labels) = sim.batch(&mut rng, &samples)?;
        let logits = head.forward(&feats)?;
        let test_accuracy = accuracy(&logits, &labels)?;
        head.set_training(true);
        Ok((TrainReport { final_loss: last_epoch_loss, test_accuracy, steps }, telemetry))
    }
}

/// Options for divergence-guarded exit-head training
/// ([`ExitTrainer::train_with`]). The defaults are monitor-only and
/// bit-identical to the historical unguarded loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitTrainOptions {
    /// Numeric-guard thresholds.
    pub guard: GuardConfig,
    /// Epoch-boundary checkpoint file, if any.
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` when it exists.
    pub resume: bool,
    /// Stop gracefully after this many completed epochs (chaos kill
    /// point); the final checkpoint is written first.
    pub stop_after_epochs: Option<usize>,
    /// Divergence rollbacks allowed before the run fails.
    pub max_rollbacks: u32,
    /// Factor the learning rate is divided by on each rollback.
    pub lr_backoff: f32,
}

impl Default for ExitTrainOptions {
    fn default() -> Self {
        ExitTrainOptions {
            guard: GuardConfig::monitor_only(),
            checkpoint: None,
            resume: false,
            stop_after_epochs: None,
            max_rollbacks: 3,
            lr_backoff: 2.0,
        }
    }
}

impl ExitTrainOptions {
    /// Enables epoch-boundary checkpoints at `path`; `resume` restores
    /// from an existing checkpoint first.
    #[must_use]
    pub fn with_checkpoint(mut self, path: PathBuf, resume: bool) -> Self {
        self.checkpoint = Some(path);
        self.resume = resume;
        self
    }

    /// Sets the graceful kill point (chaos harness).
    #[must_use]
    pub fn stop_after(mut self, epochs: usize) -> Self {
        self.stop_after_epochs = Some(epochs);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_train(capability: f64, seed: u64) -> TrainReport {
        let classes = 6;
        let sim = FeatureSimulator::new(seed, classes, 8, 4, capability);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let mut head = ExitHead::new(&mut rng, 8, 4, classes).unwrap();
        let trainer = ExitTrainer::new(classes, DifficultyDistribution::default(), 0.85)
            .with_schedule(4, 10, 16);
        trainer.train(&mut head, &sim, seed + 2).unwrap()
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let report = quick_train(0.7, 10);
        // Chance on 6 classes is ~16.7%; a capable prefix should do far better.
        assert!(
            report.test_accuracy > 0.4,
            "accuracy {} should beat chance decisively",
            report.test_accuracy
        );
        assert!(report.steps == 40);
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn deeper_prefix_trains_better_exits() {
        let shallow = quick_train(0.25, 20);
        let deep = quick_train(0.9, 20);
        assert!(
            deep.test_accuracy > shallow.test_accuracy + 0.1,
            "deep {} vs shallow {}",
            deep.test_accuracy,
            shallow.test_accuracy
        );
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let a = quick_train(0.6, 30);
        let b = quick_train(0.6, 30);
        assert_eq!(a, b);
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hadas-exit-train-{tag}-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn fixture(seed: u64) -> (ExitTrainer, FeatureSimulator, ExitHead) {
        let classes = 6;
        let sim = FeatureSimulator::new(seed, classes, 8, 4, 0.7);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let head = ExitHead::new(&mut rng, 8, 4, classes).unwrap();
        let trainer = ExitTrainer::new(classes, DifficultyDistribution::default(), 0.85)
            .with_schedule(4, 10, 16);
        (trainer, sim, head)
    }

    #[test]
    fn kill_at_epoch_and_resume_is_byte_identical() {
        let seed = 41;
        let (trainer, sim, mut straight) = fixture(seed);
        let (full, _) = trainer
            .train_with(&mut straight, &sim, seed + 2, &ExitTrainOptions::default())
            .unwrap();

        let path = scratch("kill-resume");
        let (_, _, mut killed) = fixture(seed);
        let opts = ExitTrainOptions::default().with_checkpoint(path.clone(), false).stop_after(2);
        let (_, t1) = trainer.train_with(&mut killed, &sim, seed + 2, &opts).unwrap();
        assert!(t1.interrupted, "kill point should interrupt the run");
        assert_eq!(t1.checkpoints_written, 2);

        // Resume in a *fresh* head — everything must come from the checkpoint.
        let (_, _, mut resumed) = fixture(seed + 7);
        let opts = ExitTrainOptions::default().with_checkpoint(path.clone(), true);
        let (resumed_report, t2) = trainer.train_with(&mut resumed, &sim, seed + 2, &opts).unwrap();
        assert_eq!(t2.resumed_from_epoch, Some(2));
        assert_eq!(resumed_report.final_loss.to_bits(), full.final_loss.to_bits());
        assert_eq!(resumed_report.test_accuracy.to_bits(), full.test_accuracy.to_bits());
        assert_eq!(resumed_report.steps, full.steps);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_mismatched_fingerprint() {
        let seed = 47;
        let path = scratch("fingerprint");
        let (trainer, sim, mut head) = fixture(seed);
        let opts = ExitTrainOptions::default().with_checkpoint(path.clone(), false).stop_after(1);
        trainer.train_with(&mut head, &sim, seed + 2, &opts).unwrap();

        // Different seed ⇒ different trajectory ⇒ refuse the checkpoint.
        let opts = ExitTrainOptions::default().with_checkpoint(path.clone(), true);
        let err = trainer.train_with(&mut head, &sim, seed + 3, &opts);
        assert!(
            matches!(err, Err(ExitError::Nn(NnError::Checkpoint(_)))),
            "expected a checkpoint refusal, got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
