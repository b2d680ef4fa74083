use crate::{ExitError, ExitHead, FeatureSimulator};
use hadas_dataset::DifficultyDistribution;
use hadas_nn::{
    accuracy, hybrid_exit_loss, train_guarded, LoopOptions, LoopPlan, NnError, Param,
    TrainTelemetry, Trainable,
};
use hadas_tensor::Tensor;
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

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
    /// One head through [`ExitTrainer::train_with`] under monitor-only
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
        let (reports, _) = self.train_with(&mut [(head, sim)], seed, &LoopOptions::default())?;
        // One head, one report.
        Ok(reports[0])
    }

    /// Fingerprint of everything shaping the exit-head trajectory:
    /// trainer schedule and loss parameters, every simulator, seed, guard
    /// thresholds, and rollback policy. Checkpoints from a different
    /// fingerprint are refused on resume.
    fn fingerprint(
        &self,
        exits: &[(&mut ExitHead, &FeatureSimulator)],
        seed: u64,
        opts: &LoopOptions,
    ) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{self:?}").hash(&mut h);
        for (_, sim) in exits {
            format!("{sim:?}").hash(&mut h);
        }
        seed.hash(&mut h);
        opts.hash_policy(&mut h);
        h.finish()
    }

    /// Trains every `(head, simulator)` pair of `exits` jointly, per
    /// eq. (4): each batch draws one set of samples, each simulator's
    /// features for them, then the teacher's logits, and the hybrid loss
    /// sums NLL and KD terms across **all** exits before one optimizer
    /// step. The shared guarded loop ([`train_guarded`]) runs the epochs:
    /// a [`hadas_nn::TrainGuard`] on every loss and gradient, epoch
    /// snapshots of the heads' parameters and batch-norm buffers (to disk
    /// when `opts.checkpoint` is set), and rollback with the learning rate
    /// backed off. Each head is then scored on its own held-out batch.
    ///
    /// Kill/resume contract: a run stopped at epoch `k` via
    /// `opts.stop_after_epochs` and resumed with `opts.resume` produces
    /// **byte-identical** reports to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Propagates NN and checkpoint errors, including the loop's refusal
    /// of a schedule without a full batch; returns [`ExitError::Nn`]
    /// wrapping [`NnError::Numeric`] once the rollback budget is
    /// exhausted.
    pub fn train_with(
        &self,
        exits: &mut [(&mut ExitHead, &FeatureSimulator)],
        seed: u64,
        opts: &LoopOptions,
    ) -> Result<(Vec<TrainReport>, TrainTelemetry), ExitError> {
        let plan = LoopPlan {
            epochs: self.epochs,
            batches: if self.batch_size == 0 { 0 } else { self.train_batches },
            lr: self.lr,
            seed,
            fingerprint: self.fingerprint(exits, seed, opts),
        };
        for (head, _) in exits.iter_mut() {
            head.set_training(true);
        }
        let run =
            train_guarded(&mut Heads(exits), &plan, opts, |heads, rng, _| self.step(heads.0, rng))?;
        // Held-out evaluation, exit by exit.
        let mut rng = run.rng;
        let mut reports = Vec::with_capacity(exits.len());
        for (head, sim) in exits.iter_mut() {
            head.set_training(false);
            let samples = self.draw_samples(&mut rng, self.batch_size * 4);
            let (feats, labels) = sim.batch(&mut rng, &samples)?;
            let test_accuracy = accuracy(&head.forward(&feats)?, &labels)?;
            head.set_training(true);
            reports.push(TrainReport {
                final_loss: run.final_loss,
                test_accuracy,
                steps: run.steps,
            });
        }
        Ok((reports, run.telemetry))
    }

    /// Forward and backward of one joint batch; returns its hybrid loss.
    fn step<R: Rng>(
        &self,
        exits: &mut [(&mut ExitHead, &FeatureSimulator)],
        rng: &mut R,
    ) -> Result<f32, ExitError> {
        let samples = self.draw_samples(rng, self.batch_size);
        let mut logits = Vec::with_capacity(exits.len());
        for (head, sim) in exits.iter_mut() {
            let (feats, _) = sim.batch(rng, &samples)?;
            logits.push(head.forward(&feats)?);
        }
        let teacher = self.teacher_logits(rng, &samples)?;
        let labels: Vec<usize> = samples.iter().map(|&(label, _)| label).collect();
        let (loss, grads) = hybrid_exit_loss(&logits, &teacher, &labels, self.kd_temp)?;
        for ((head, _), grad) in exits.iter_mut().zip(&grads) {
            head.net_mut().zero_grad();
            head.backward(grad)?;
        }
        Ok(loss)
    }
}

/// The heads of one joint run as the guarded loop sees them: their
/// parameters and layer buffers, head after head.
struct Heads<'a, 'h, 's>(&'a mut [(&'h mut ExitHead, &'s FeatureSimulator)]);

impl Trainable for Heads<'_, '_, '_> {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.0.iter_mut().flat_map(|(head, _)| head.net_mut().params_mut()).collect()
    }

    fn state_buffers(&mut self) -> Vec<Vec<f32>> {
        self.0.iter_mut().flat_map(|(head, _)| head.net_mut().state_buffers()).collect()
    }

    fn load_state_buffers(&mut self, buffers: &[Vec<f32>]) -> Result<(), NnError> {
        // Empty buffers restore nothing, as for one `Sequential`.
        if buffers.is_empty() {
            return Ok(());
        }
        let layers: usize = self.0.iter_mut().map(|(head, _)| head.net_mut().len()).sum();
        if buffers.len() != layers {
            return Err(NnError::Checkpoint(format!(
                "checkpoint has {} layer-state buffers, the heads have {layers} layers",
                buffers.len()
            )));
        }
        let mut rest = buffers;
        for (head, _) in self.0.iter_mut() {
            let (own, tail) = rest.split_at(head.net_mut().len());
            head.net_mut().load_state_buffers(own)?;
            rest = tail;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_nn::WithLoopOptions;
    use rand::{rngs::StdRng, SeedableRng};

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
            .train_with(&mut [(&mut straight, &sim)], seed + 2, &LoopOptions::default())
            .unwrap();

        let path = scratch("kill-resume");
        let (_, _, mut killed) = fixture(seed);
        let opts = LoopOptions::default().with_checkpoint(path.clone(), false).stop_after(2);
        let (_, t1) = trainer.train_with(&mut [(&mut killed, &sim)], seed + 2, &opts).unwrap();
        assert!(t1.interrupted, "kill point should interrupt the run");
        assert_eq!(t1.checkpoints_written, 2);

        // Resume in a *fresh* head — everything must come from the checkpoint.
        let (_, _, mut resumed) = fixture(seed + 7);
        let opts = LoopOptions::default().with_checkpoint(path.clone(), true);
        let (resumed, t2) =
            trainer.train_with(&mut [(&mut resumed, &sim)], seed + 2, &opts).unwrap();
        let (resumed_report, full) = (resumed[0], full[0]);
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
        let opts = LoopOptions::default().with_checkpoint(path.clone(), false).stop_after(1);
        trainer.train_with(&mut [(&mut head, &sim)], seed + 2, &opts).unwrap();

        // Different seed ⇒ different trajectory ⇒ refuse the checkpoint.
        let opts = LoopOptions::default().with_checkpoint(path.clone(), true);
        let err = trainer.train_with(&mut [(&mut head, &sim)], seed + 3, &opts);
        assert!(
            matches!(err, Err(ExitError::Nn(NnError::Checkpoint(_)))),
            "expected a checkpoint refusal, got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
