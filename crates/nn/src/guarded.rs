//! The one guarded epoch loop every trainer runs: the supernet's sandwich
//! training and the joint exit-head trainer supply their parameters,
//! their layer buffers and one closure per batch; [`train_guarded`] owns
//! the rest — resume from a sealed [`TrainCheckpoint`], the in-memory
//! last-good snapshot, the [`TrainGuard`] on every step, rollback with
//! learning-rate backoff, the epoch-boundary checkpoint and the kill
//! point.

use crate::{seal, GuardConfig, NnError, Param, Sgd, TrainCheckpoint, TrainGuard, TrainTelemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

/// The guard, checkpoint and rollback policy of one guarded run. The
/// defaults are monitor-only and bit-identical to an unguarded loop on
/// healthy data.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopOptions {
    /// Numeric-guard thresholds.
    pub guard: GuardConfig,
    /// Epoch-boundary checkpoint file, if any.
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` when it exists (refused on a
    /// fingerprint mismatch).
    pub resume: bool,
    /// Stop gracefully after this many *completed* epochs — the chaos
    /// harness's kill point. The final checkpoint is written first.
    pub stop_after_epochs: Option<usize>,
    /// Divergence rollbacks allowed before the run fails with the
    /// escalated [`crate::NumericAnomaly`].
    pub max_rollbacks: u32,
    /// Factor the learning rate is divided by on each rollback.
    pub lr_backoff: f32,
}

impl Default for LoopOptions {
    fn default() -> Self {
        LoopOptions {
            guard: GuardConfig::monitor_only(),
            checkpoint: None,
            resume: false,
            stop_after_epochs: None,
            max_rollbacks: 3,
            lr_backoff: 2.0,
        }
    }
}

impl LoopOptions {
    /// Feeds the rollback policy (guard thresholds, rollback budget,
    /// backoff) into a run fingerprint. The kill point and the checkpoint
    /// path stay out, so an interrupted run and its resumption share a
    /// fingerprint.
    pub fn hash_policy<H: Hasher>(&self, h: &mut H) {
        format!("{:?}", self.guard).hash(h);
        self.max_rollbacks.hash(h);
        self.lr_backoff.to_bits().hash(h);
    }
}

/// The builders of every options type that carries a [`LoopOptions`].
pub trait WithLoopOptions: Sized {
    /// The loop options inside.
    fn loop_options_mut(&mut self) -> &mut LoopOptions;

    /// Replaces the guard thresholds.
    #[must_use]
    fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.loop_options_mut().guard = guard;
        self
    }

    /// Enables epoch-boundary checkpoints at `path`; `resume` restores
    /// from an existing checkpoint first.
    #[must_use]
    fn with_checkpoint(mut self, path: PathBuf, resume: bool) -> Self {
        let opts = self.loop_options_mut();
        opts.checkpoint = Some(path);
        opts.resume = resume;
        self
    }

    /// Sets the graceful kill point (chaos harness).
    #[must_use]
    fn stop_after(mut self, epochs: usize) -> Self {
        self.loop_options_mut().stop_after_epochs = Some(epochs);
        self
    }
}

impl WithLoopOptions for LoopOptions {
    fn loop_options_mut(&mut self) -> &mut LoopOptions {
        self
    }
}

/// What the loop snapshots and restores of a model.
pub trait Trainable {
    /// The trainable parameters, always in the same order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Non-trainable layer state (batch-norm running statistics), one
    /// entry per layer; none by default.
    fn state_buffers(&mut self) -> Vec<Vec<f32>> {
        Vec::new()
    }

    /// Restores what [`Trainable::state_buffers`] captured.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Checkpoint`] if the buffers do not fit the
    /// model.
    fn load_state_buffers(&mut self, _buffers: &[Vec<f32>]) -> Result<(), NnError> {
        Ok(())
    }
}

/// The shape of one guarded run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopPlan {
    /// Number of epochs.
    pub epochs: usize,
    /// Full batches per epoch.
    pub batches: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Seed of the run's RNG, which every step draws from.
    pub seed: u64,
    /// Hash of everything that shapes the trajectory; a checkpoint with
    /// another fingerprint is refused on resume.
    pub fingerprint: u64,
}

/// What a finished or interrupted guarded run hands back.
#[derive(Debug)]
pub struct LoopOutcome {
    /// Mean loss over the last completed epoch (`0` if none ran).
    pub final_loss: f32,
    /// Optimizer steps taken.
    pub steps: usize,
    /// The run's RNG where training left it, for held-out draws.
    pub rng: StdRng,
    /// Rollbacks, anomalies, checkpoints and the kill point.
    pub telemetry: TrainTelemetry,
}

/// Runs `plan.epochs` epochs of `plan.batches` steps over `model`:
/// `step(model, rng, batch)` runs forward and backward for batch `batch`
/// of the epoch and returns its loss. SGD (momentum 0.9, weight decay
/// 1e-4) steps every batch the [`TrainGuard`] passes; a tripped guard
/// restores the last good epoch with the learning rate divided by
/// `opts.lr_backoff` (clamped at `1e-6`) and a fresh spike window, up to
/// `opts.max_rollbacks` times. Every epoch boundary refreshes that
/// snapshot and, when `opts.checkpoint` is set, seals it to disk; a run
/// stopped there and resumed with `opts.resume` reproduces the
/// uninterrupted run bit for bit.
///
/// # Errors
///
/// Before the first step, [`NnError::InvalidLearningRate`] for a
/// non-finite or non-positive `plan.lr` and [`NnError::EmptyEpoch`] for
/// zero batches per epoch; then checkpoint errors, the step's own
/// errors, and [`NnError::Numeric`] once the rollback budget is spent.
pub fn train_guarded<M, E>(
    model: &mut M,
    plan: &LoopPlan,
    opts: &LoopOptions,
    mut step: impl FnMut(&mut M, &mut StdRng, usize) -> Result<f32, E>,
) -> Result<LoopOutcome, E>
where
    M: Trainable + ?Sized,
    E: From<NnError>,
{
    if !(plan.lr.is_finite() && plan.lr > 0.0) {
        return Err(NnError::InvalidLearningRate { lr: plan.lr }.into());
    }
    if plan.batches == 0 {
        return Err(NnError::EmptyEpoch.into());
    }
    let mut telemetry = TrainTelemetry::default();
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let mut opt = Sgd::new(plan.lr, 0.9, 1e-4);
    let mut guard = TrainGuard::new(opts.guard.clone());
    let (mut epoch, mut steps, mut rollbacks) = (0usize, 0usize, 0u32);
    let mut last_epoch_loss = 0.0f32;

    if let Some(path) = opts.checkpoint.as_ref().filter(|p| opts.resume && p.exists()) {
        let ckpt: TrainCheckpoint = seal::load(path).map_err(NnError::from)?;
        ckpt.validate_against(plan.fingerprint)?;
        rng = restore(model, &ckpt, &mut opt)?;
        (epoch, steps, rollbacks) = (ckpt.epoch, ckpt.steps, ckpt.rollbacks);
        last_epoch_loss = ckpt.last_epoch_loss;
        telemetry.resumed_from_epoch = Some(ckpt.epoch);
    }

    // The in-memory last-good-epoch snapshot a rollback restores
    // (identical to what goes to disk).
    let mut last_good =
        snapshot(model, plan.fingerprint, (epoch, steps, rollbacks, last_epoch_loss), &rng, &opt);

    'training: while epoch < plan.epochs {
        let mut epoch_loss = 0.0f32;
        for batch in 0..plan.batches {
            let loss = step(model, &mut rng, batch)?;
            // Numeric sentinel: loss finiteness + spike window, then
            // gradient finiteness + optional global-norm clipping.
            let guarded = guard
                .observe_loss(loss)
                .and_then(|()| guard.clip_gradients(&mut model.params_mut()).map(|_| ()));
            if let Err(anomaly) = guarded {
                telemetry.anomalies.push(anomaly.to_string());
                if rollbacks >= opts.max_rollbacks {
                    return Err(NnError::Numeric(anomaly).into());
                }
                rollbacks += 1;
                telemetry.rollbacks = rollbacks;
                // Roll back to the last good epoch with a backed-off
                // learning rate and a fresh spike window; the snapshot
                // keeps the backoff so a second trip in the same epoch
                // backs off further instead of starting over.
                rng = restore(model, &last_good, &mut opt)?;
                let lr = (opt.lr() / opts.lr_backoff).max(1e-6);
                opt.set_lr(lr);
                (epoch, steps) = (last_good.epoch, last_good.steps);
                guard.reset_window();
                last_good.lr = lr;
                continue 'training;
            }
            opt.step(model.params_mut());
            epoch_loss += loss;
            steps += 1;
        }
        // Exact below 2^24 batches per epoch, far above any schedule here.
        last_epoch_loss = epoch_loss / plan.batches as f32; // lint:allow(cast)
        epoch += 1;
        last_good = snapshot(
            model,
            plan.fingerprint,
            (epoch, steps, rollbacks, last_epoch_loss),
            &rng,
            &opt,
        );
        if let Some(path) = &opts.checkpoint {
            seal::write(path, &last_good).map_err(NnError::from)?;
            telemetry.checkpoints_written += 1;
        }
        if opts.stop_after_epochs.is_some_and(|stop| epoch >= stop && epoch < plan.epochs) {
            telemetry.interrupted = true;
            break;
        }
    }
    telemetry.clipped_steps = guard.clipped_steps();
    Ok(LoopOutcome { final_loss: last_epoch_loss, steps, rng, telemetry })
}

/// The whole resumable state at an epoch boundary: `(epoch, steps,
/// rollbacks, last epoch's loss)`, the model, the optimizer and the RNG.
fn snapshot<M: Trainable + ?Sized>(
    model: &mut M,
    fingerprint: u64,
    (epoch, steps, rollbacks, last_epoch_loss): (usize, usize, u32, f32),
    rng: &StdRng,
    opt: &Sgd,
) -> TrainCheckpoint {
    let buffers = model.state_buffers();
    let params = model.params_mut();
    TrainCheckpoint {
        last_epoch_loss,
        ..TrainCheckpoint::capture(fingerprint, epoch, steps, rollbacks, rng.state(), &params, opt)
            .with_buffers(buffers)
    }
}

/// Puts `ckpt`'s weights, velocity, learning rate and layer buffers back
/// into the model and optimizer, and returns its RNG.
fn restore<M: Trainable + ?Sized>(
    model: &mut M,
    ckpt: &TrainCheckpoint,
    opt: &mut Sgd,
) -> Result<StdRng, NnError> {
    ckpt.restore(&mut model.params_mut(), opt)?;
    model.load_state_buffers(&ckpt.buffers)?;
    Ok(StdRng::from_state(ckpt.rng_state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_tensor::Tensor;
    use rand::Rng;

    /// One scalar weight fitted to a noisy target: the smallest model the
    /// loop can drive.
    struct Scalar(Param);

    impl Trainable for Scalar {
        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.0]
        }
    }

    fn fit(m: &mut Scalar, rng: &mut StdRng, _batch: usize) -> Result<f32, NnError> {
        let target = 3.0 + rng.gen_range(-0.1f32..0.1);
        let w = m.0.value().as_slice()[0];
        m.0.grad_mut().as_mut_slice()[0] = 2.0 * (w - target);
        Ok((w - target) * (w - target))
    }

    fn plan() -> LoopPlan {
        LoopPlan { epochs: 2, batches: 4, lr: 0.05, seed: 1, fingerprint: 7 }
    }

    fn scalar() -> Scalar {
        Scalar(Param::new(Tensor::zeros(&[1])))
    }

    #[test]
    fn bad_learning_rates_and_empty_epochs_are_refused_before_any_step() {
        for lr in [0.0, -0.1, f32::NAN, f32::INFINITY] {
            let mut m = scalar();
            let err =
                train_guarded(&mut m, &LoopPlan { lr, ..plan() }, &LoopOptions::default(), fit)
                    .unwrap_err();
            assert!(matches!(err, NnError::InvalidLearningRate { .. }), "{lr}: {err}");
        }
        let mut m = scalar();
        let mut steps = 0;
        let err = train_guarded(
            &mut m,
            &LoopPlan { batches: 0, ..plan() },
            &LoopOptions::default(),
            |m, rng, b| {
                steps += 1;
                fit(m, rng, b)
            },
        )
        .unwrap_err();
        assert_eq!(err, NnError::EmptyEpoch);
        assert_eq!(steps, 0);
    }

    #[test]
    fn resuming_a_finished_run_reports_its_final_loss() {
        let path =
            std::env::temp_dir().join(format!("hadas-guarded-final-{}.json", std::process::id()));
        let straight = train_guarded(&mut scalar(), &plan(), &LoopOptions::default(), fit).unwrap();
        let opts = LoopOptions::default().with_checkpoint(path.clone(), false);
        train_guarded(&mut scalar(), &plan(), &opts, fit).unwrap();
        // The checkpoint sits at the final epoch: the resumed run takes no
        // step and must still report the loss the run finished with.
        let opts = LoopOptions::default().with_checkpoint(path.clone(), true);
        let mut calls = 0;
        let resumed = train_guarded(&mut scalar(), &plan(), &opts, |m, rng, b| {
            calls += 1;
            fit(m, rng, b)
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!((calls, resumed.steps), (0, straight.steps));
        assert_eq!(resumed.telemetry.resumed_from_epoch, Some(plan().epochs));
        assert_ne!(straight.final_loss, 0.0);
        assert_eq!(resumed.final_loss.to_bits(), straight.final_loss.to_bits());
    }

    #[test]
    fn a_tripped_guard_rolls_back_with_backoff_until_the_budget_is_spent() {
        // NaN on the third step of the first two attempts: two rollbacks
        // to epoch 0, then a clean run at a quarter of the learning rate.
        let path =
            std::env::temp_dir().join(format!("hadas-guarded-backoff-{}.json", std::process::id()));
        let opts = LoopOptions::default().with_checkpoint(path.clone(), false);
        let mut calls = 0;
        let run = train_guarded(&mut scalar(), &plan(), &opts, |m, rng, b| {
            calls += 1;
            if calls == 3 || calls == 6 {
                return Ok(f32::NAN);
            }
            fit(m, rng, b)
        })
        .unwrap();
        let ckpt: TrainCheckpoint = seal::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!((run.telemetry.rollbacks, run.steps, calls), (2, 8, 14));
        assert_eq!((ckpt.lr, ckpt.rollbacks), (0.0125, 2));

        // NaN on the third step of every attempt: each trip rolls back
        // until the budget of two is spent, then the anomaly escalates.
        let opts = LoopOptions { max_rollbacks: 2, ..LoopOptions::default() };
        let mut calls = 0;
        let err = train_guarded(&mut scalar(), &plan(), &opts, |m, rng, b| {
            calls += 1;
            if b == 2 {
                return Ok(f32::NAN);
            }
            fit(m, rng, b)
        })
        .unwrap_err();
        assert!(matches!(err, NnError::Numeric(crate::NumericAnomaly::NonFiniteLoss { .. })));
        assert_eq!(calls, 9, "three attempts of three steps each");
    }
}
