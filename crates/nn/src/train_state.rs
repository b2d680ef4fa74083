//! Epoch-boundary training checkpoints: the full resumable state of a
//! guarded training loop — parameter values, SGD velocity buffers, the
//! RNG's exact xoshiro256** stream position, the (possibly backed-off)
//! learning rate, and the epoch/step counters — persisted as a sealed
//! artifact ([`crate::seal`]), like the search-plane `SearchCheckpoint`.
//!
//! The contract the chaos tests pin: a training run killed at epoch `k`
//! and resumed from its checkpoint produces **byte-identical** final
//! evaluations to an uninterrupted run. The same struct also serves as
//! the *in-memory* last-good-epoch snapshot that divergence rollback
//! restores (no disk round-trip needed).

use crate::seal::Sealed;
use crate::{NnError, Param, Sgd};
use hadas_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Schema version of the training-checkpoint file; bump on breaking
/// layout change.
/// v2: sealed, with a content fingerprint; the configuration hash moved
/// to `config_fingerprint`.
/// v3: carries the last completed epoch's mean loss, so a run resumed at
/// its final epoch reports the loss it finished with.
pub const TRAIN_CHECKPOINT_SCHEMA: u32 = 3;

/// The whole resumable training state at one epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Layout version ([`TRAIN_CHECKPOINT_SCHEMA`]).
    pub schema: u32,
    /// Content fingerprint, stamped when written ([`crate::seal`]); zero
    /// in memory.
    pub fingerprint: u64,
    /// Hash of the training configuration (model shape, schedule, seed,
    /// dataset size). Resume refuses a mismatched fingerprint — splicing
    /// two different runs would silently break determinism.
    pub config_fingerprint: u64,
    /// The next epoch to execute (0-based).
    pub epoch: usize,
    /// Optimizer steps taken so far.
    pub steps: usize,
    /// The learning rate in effect (may differ from the configured rate
    /// after divergence backoff).
    pub lr: f32,
    /// Rollbacks performed so far (carried so the rollback budget is not
    /// reset by a kill/resume cycle).
    pub rollbacks: u32,
    /// Mean loss over the last completed epoch (`0` before the first).
    pub last_epoch_loss: f32,
    /// The training RNG's xoshiro256** state at the epoch boundary.
    pub rng_state: [u64; 4],
    /// Flat copies of every parameter tensor, in parameter-list order.
    pub params: Vec<Vec<f32>>,
    /// Flat copies of the optimizer's velocity buffers (same order).
    pub velocity: Vec<Vec<f32>>,
    /// Non-trainable per-layer state buffers (batch-norm running
    /// statistics), one entry per layer in network order; empty entries
    /// for stateless layers. Captured via
    /// [`crate::Sequential::state_buffers`] and restored by the caller
    /// with [`crate::Sequential::load_state_buffers`] — the checkpoint
    /// itself only transports them.
    pub buffers: Vec<Vec<f32>>,
}

impl TrainCheckpoint {
    /// Captures the full training state from live parameters and
    /// optimizer.
    pub fn capture(
        config_fingerprint: u64,
        epoch: usize,
        steps: usize,
        rollbacks: u32,
        rng_state: [u64; 4],
        params: &[&mut Param],
        opt: &Sgd,
    ) -> Self {
        TrainCheckpoint {
            schema: TRAIN_CHECKPOINT_SCHEMA,
            fingerprint: 0,
            config_fingerprint,
            epoch,
            steps,
            lr: opt.lr(),
            rollbacks,
            last_epoch_loss: 0.0,
            rng_state,
            params: params.iter().map(|p| p.value().as_slice().to_vec()).collect(),
            velocity: opt.velocity_tensors().iter().map(|t| t.as_slice().to_vec()).collect(),
            buffers: Vec::new(),
        }
    }

    /// Attaches non-trainable layer state (batch-norm running stats) to
    /// the snapshot.
    #[must_use]
    pub fn with_buffers(mut self, buffers: Vec<Vec<f32>>) -> Self {
        self.buffers = buffers;
        self
    }

    /// Restores parameter values and optimizer velocity/learning-rate
    /// from this snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Checkpoint`] if the stored frames don't match
    /// the live parameter shapes.
    pub fn restore(&self, params: &mut [&mut Param], opt: &mut Sgd) -> Result<(), NnError> {
        if self.params.len() != params.len() {
            return Err(NnError::Checkpoint(format!(
                "checkpoint has {} parameter frames, model has {}",
                self.params.len(),
                params.len()
            )));
        }
        if self.velocity.len() > params.len() {
            return Err(NnError::Checkpoint(format!(
                "checkpoint has {} velocity frames for {} parameters",
                self.velocity.len(),
                params.len()
            )));
        }
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err(NnError::Checkpoint(format!("checkpoint lr {} is invalid", self.lr)));
        }
        // Validate every frame before mutating anything, so a bad
        // checkpoint leaves the live model untouched.
        for (i, (frame, p)) in self.params.iter().zip(params.iter()).enumerate() {
            if frame.len() != p.len() {
                return Err(NnError::Checkpoint(format!(
                    "parameter {i}: checkpoint frame has {} elements, model expects {}",
                    frame.len(),
                    p.len()
                )));
            }
        }
        for (i, frame) in self.velocity.iter().enumerate() {
            if frame.len() != params[i].len() {
                return Err(NnError::Checkpoint(format!(
                    "velocity {i}: checkpoint frame has {} elements, model expects {}",
                    frame.len(),
                    params[i].len()
                )));
            }
        }
        for (frame, p) in self.params.iter().zip(params.iter_mut()) {
            p.value_mut().as_mut_slice().copy_from_slice(frame);
        }
        let mut velocity = Vec::with_capacity(self.velocity.len());
        for (i, frame) in self.velocity.iter().enumerate() {
            let dims = params[i].value().shape().dims().to_vec();
            velocity.push(Tensor::from_vec(frame.clone(), &dims)?);
        }
        opt.set_velocity_tensors(velocity);
        opt.set_lr(self.lr);
        Ok(())
    }

    /// Checks that this checkpoint belongs to the run described by
    /// `config_fingerprint`. The schema is checked when the file loads.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Checkpoint`] on a configuration mismatch.
    pub fn validate_against(&self, config_fingerprint: u64) -> Result<(), NnError> {
        if self.config_fingerprint != config_fingerprint {
            return Err(NnError::Checkpoint(
                "train checkpoint was produced by a different configuration; \
                 resume with the same model, schedule, seed, and data"
                    .into(),
            ));
        }
        Ok(())
    }
}

impl Sealed for TrainCheckpoint {
    const SCHEMA: u32 = TRAIN_CHECKPOINT_SCHEMA;
    const NAME: &'static str = "train checkpoint";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seal;
    use hadas_tensor::Tensor;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hadas-train-ckpt-{tag}-{}.json", std::process::id()))
    }

    fn model() -> (Vec<Param>, Sgd) {
        let params =
            vec![Param::new(Tensor::full(&[2, 2], 1.5)), Param::new(Tensor::full(&[3], -0.5))];
        (params, Sgd::new(0.1, 0.9, 1e-4))
    }

    #[test]
    fn capture_restore_roundtrips_exactly() {
        let (mut params, mut opt) = model();
        // Take a step so velocity buffers exist.
        for p in &mut params {
            for g in p.grad_mut().as_mut_slice() {
                *g = 0.25;
            }
        }
        opt.step(params.iter_mut().collect());
        let refs: Vec<&mut Param> = params.iter_mut().collect();
        let ckpt = TrainCheckpoint::capture(42, 3, 17, 1, [9, 8, 7, 6], &refs, &opt);
        drop(refs);

        // Mutate, then restore.
        let (mut fresh, mut fresh_opt) = model();
        let mut refs: Vec<&mut Param> = fresh.iter_mut().collect();
        ckpt.restore(&mut refs, &mut fresh_opt).unwrap();
        drop(refs);
        for (a, b) in fresh.iter().zip(params.iter()) {
            assert_eq!(a.value(), b.value());
        }
        assert_eq!(fresh_opt.lr(), opt.lr());
        assert_eq!(fresh_opt.velocity_tensors(), opt.velocity_tensors());
    }

    #[test]
    fn disk_roundtrip_is_lossless() {
        let (mut params, opt) = model();
        let refs: Vec<&mut Param> = params.iter_mut().collect();
        let ckpt = TrainCheckpoint::capture(7, 1, 4, 0, [1, 2, 3, 4], &refs, &opt);
        let path = tmp("roundtrip");
        seal::write(&path, &ckpt).unwrap();
        let loaded: TrainCheckpoint = seal::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_ne!(loaded.fingerprint, 0, "writing stamps a content fingerprint");
        assert_eq!(TrainCheckpoint { fingerprint: loaded.fingerprint, ..ckpt }, loaded);
        loaded.validate_against(7).unwrap();
        assert!(loaded.validate_against(8).is_err());
    }

    #[test]
    fn restore_rejects_shape_mismatch_without_mutating() {
        let (mut params, opt) = model();
        let refs: Vec<&mut Param> = params.iter_mut().collect();
        let mut ckpt = TrainCheckpoint::capture(7, 0, 0, 0, [0; 4], &refs, &opt);
        ckpt.params[0].push(99.0);
        let (mut fresh, mut fresh_opt) = model();
        let before: Vec<Tensor> = fresh.iter().map(|p| p.value().clone()).collect();
        let mut refs: Vec<&mut Param> = fresh.iter_mut().collect();
        assert!(ckpt.restore(&mut refs, &mut fresh_opt).is_err());
        drop(refs);
        for (p, b) in fresh.iter().zip(before.iter()) {
            assert_eq!(p.value(), b, "failed restore must leave the model untouched");
        }
    }

    /// Missing, unparsable and half-written files are refused by the seal
    /// itself (`seal` tests); here a checkpoint with one parameter digit
    /// edited, or a stale schema tag, must be refused by name.
    #[test]
    fn load_surfaces_missing_and_corrupt_files() {
        let (mut params, opt) = model();
        let refs: Vec<&mut Param> = params.iter_mut().collect();
        let ckpt = TrainCheckpoint::capture(7, 0, 0, 0, [0; 4], &refs, &opt);
        let path = tmp("corrupt");
        seal::write(&path, &ckpt).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let edited_param = json.replacen("1.5", "1.6", 1);
        assert_ne!(edited_param, json);
        let stale_schema = json.replacen("\"schema\": 3", "\"schema\": 2", 1);
        for (corrupt, refusal) in [(edited_param, "fingerprint"), (stale_schema, "schema")] {
            std::fs::write(&path, corrupt).unwrap();
            let err = NnError::from(seal::load::<TrainCheckpoint>(&path).unwrap_err());
            assert!(matches!(&err, NnError::Checkpoint(m) if m.contains(refusal)), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }
}
