//! Options for divergence-guarded supernet training: the schedule,
//! per-sample validation, and the shared loop's guard, checkpoint, kill
//! point and rollback policy ([`LoopOptions`]).

use crate::SupernetConfig;
use hadas_nn::{LoopOptions, WithLoopOptions};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Configuration of one guarded training run
/// ([`crate::MicroSupernet::train_with`]).
///
/// The plain [`crate::MicroSupernet::train`] wrapper uses
/// [`TrainOptions::new`], which is **bit-identical** to the historical
/// unguarded loop on healthy data: monitor-only guard (no clipping), no
/// checkpointing, and per-sample validation that is a no-op on a clean
/// dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Number of epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Initial learning rate (may be backed off by divergence rollback).
    pub lr: f32,
    /// Seed of the subnet-sampling RNG.
    pub seed: u64,
    /// Guard, checkpoint and rollback policy of the shared loop
    /// ([`hadas_nn::train_guarded`]); its builders come with
    /// [`WithLoopOptions`].
    pub guarded: LoopOptions,
    /// Per-sample validation bound: pixels beyond this magnitude (or
    /// non-finite) quarantine the sample before training.
    pub max_abs_pixel: f32,
    /// Run per-sample validation before training (default). Disabling
    /// it lets poison reach the loss — the [`hadas_nn::TrainGuard`] is
    /// then the last line of defence, escalating a typed anomaly
    /// instead of silently corrupting the shared weights.
    pub validate_data: bool,
}

impl TrainOptions {
    /// Monitor-only defaults matching the historical `train` signature.
    pub fn new(epochs: usize, batch: usize, lr: f32, seed: u64) -> Self {
        TrainOptions {
            epochs,
            batch,
            lr,
            seed,
            guarded: LoopOptions::default(),
            max_abs_pixel: hadas_dataset::MAX_ABS_PIXEL,
            validate_data: true,
        }
    }

    /// Fingerprint of everything that shapes the training trajectory —
    /// model config, schedule, seed, guard thresholds, rollback policy,
    /// and sanitized train-split size. Checkpoints from a different
    /// fingerprint are refused on resume, because splicing two
    /// different trajectories would silently break the byte-identical
    /// determinism contract. Deliberately *excludes* the kill point and
    /// checkpoint path: an interrupted run and its resumption share a
    /// fingerprint.
    pub fn fingerprint(&self, config: &SupernetConfig, train_len: usize) -> u64 {
        let mut h = DefaultHasher::new();
        self.epochs.hash(&mut h);
        self.batch.hash(&mut h);
        self.lr.to_bits().hash(&mut h);
        self.seed.hash(&mut h);
        format!("{config:?}").hash(&mut h);
        self.guarded.hash_policy(&mut h);
        self.max_abs_pixel.to_bits().hash(&mut h);
        self.validate_data.hash(&mut h);
        train_len.hash(&mut h);
        h.finish()
    }
}

impl WithLoopOptions for TrainOptions {
    fn loop_options_mut(&mut self) -> &mut LoopOptions {
        &mut self.guarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_kill_point_but_not_schedule() {
        let cfg = SupernetConfig::tiny();
        let base = TrainOptions::new(8, 16, 0.05, 9);
        let killed = base.clone().stop_after(3).with_checkpoint("x.json".into(), true);
        assert_eq!(base.fingerprint(&cfg, 96), killed.fingerprint(&cfg, 96));
        let other = TrainOptions::new(9, 16, 0.05, 9);
        assert_ne!(base.fingerprint(&cfg, 96), other.fingerprint(&cfg, 96));
        assert_ne!(base.fingerprint(&cfg, 96), base.fingerprint(&cfg, 95));
    }
}
