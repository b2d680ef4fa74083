//! Joint training of a full exit *placement* — the paper's actual training
//! procedure (§IV-B.2): all candidate exit heads train **simultaneously**
//! against a frozen backbone with the hybrid loss of eq. (4), each head
//! combining its own cross-entropy with distillation from the final
//! classifier. This module builds the heads and simulators of a
//! placement; [`ExitTrainer::train_with`] trains them.

use crate::{ExitError, ExitHead, ExitPlacement, ExitTrainer, FeatureSimulator, TrainReport};
use hadas_dataset::DifficultyDistribution;
use hadas_nn::LoopOptions;
use rand::{rngs::StdRng, SeedableRng};

/// A multi-exit training setup: one [`FeatureSimulator`] and one
/// [`ExitHead`] per exit position of a placement, trained jointly.
#[derive(Debug)]
pub struct MultiExitTrainer {
    trainer: ExitTrainer,
    capabilities: Vec<f64>,
    simulators: Vec<FeatureSimulator>,
    heads: Vec<ExitHead>,
}

/// Per-exit outcome of a joint training run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiExitReport {
    /// One report per exit, in placement order.
    pub per_exit: Vec<TrainReport>,
    /// Mean hybrid loss over the final epoch (all exits combined).
    pub final_loss: f32,
}

impl MultiExitTrainer {
    /// Builds heads and feature simulators for every position of
    /// `placement`, where `capabilities[i]` is the capability of the
    /// backbone prefix feeding exit `i` (from the accuracy surrogate).
    ///
    /// # Errors
    ///
    /// Returns [`ExitError::InvalidPlacement`] if capability count and
    /// placement length disagree, or propagates head-construction errors.
    pub fn new(
        placement: &ExitPlacement,
        capabilities: Vec<f64>,
        classes: usize,
        difficulty: DifficultyDistribution,
        final_capability: f64,
        seed: u64,
    ) -> Result<Self, ExitError> {
        if capabilities.len() != placement.len() {
            return Err(ExitError::InvalidPlacement(format!(
                "{} capabilities for {} exits",
                capabilities.len(),
                placement.len()
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let channels = 12usize;
        let size = 5usize;
        let mut simulators = Vec::with_capacity(placement.len());
        let mut heads = Vec::with_capacity(placement.len());
        for (k, &cap) in capabilities.iter().enumerate() {
            simulators.push(FeatureSimulator::new(
                seed ^ (k as u64 + 1),
                classes,
                channels,
                size,
                cap,
            ));
            heads.push(ExitHead::new(&mut rng, channels, size, classes)?);
        }
        Ok(MultiExitTrainer {
            trainer: ExitTrainer::new(classes, difficulty, final_capability),
            capabilities,
            simulators,
            heads,
        })
    }

    /// Number of exits being trained.
    pub fn num_exits(&self) -> usize {
        self.heads.len()
    }

    /// The trained heads (after [`MultiExitTrainer::train`]).
    pub fn heads(&self) -> &[ExitHead] {
        &self.heads
    }

    /// Trains every head jointly for `epochs` × `batches` steps of batch
    /// size `batch` through [`ExitTrainer::train_with`] under
    /// monitor-only defaults.
    ///
    /// # Errors
    ///
    /// Propagates NN framework errors.
    pub fn train(
        &mut self,
        epochs: usize,
        batches: usize,
        batch: usize,
        seed: u64,
    ) -> Result<MultiExitReport, ExitError> {
        let trainer = self.trainer.clone().with_schedule(epochs, batches, batch);
        let mut exits: Vec<_> = self.heads.iter_mut().zip(&self.simulators).collect();
        let (per_exit, _) = trainer.train_with(&mut exits, seed, &LoopOptions::default())?;
        let final_loss = per_exit.first().map_or(0.0, |r| r.final_loss);
        Ok(MultiExitReport { per_exit, final_loss })
    }

    /// The capability each exit's features were generated with.
    pub fn capabilities(&self) -> &[f64] {
        &self.capabilities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement() -> ExitPlacement {
        ExitPlacement::new(vec![6, 12, 20], 20).expect("valid placement")
    }

    #[test]
    fn joint_training_improves_all_exits() {
        let mut trainer = MultiExitTrainer::new(
            &placement(),
            vec![0.35, 0.6, 0.9],
            6,
            DifficultyDistribution::default(),
            0.9,
            4,
        )
        .expect("valid setup");
        let report = trainer.train(4, 10, 16, 9).expect("training runs");
        assert_eq!(report.per_exit.len(), 3);
        // Every exit must decisively beat 1/6 chance.
        for (k, r) in report.per_exit.iter().enumerate() {
            assert!(r.test_accuracy > 0.35, "exit {k} accuracy {}", r.test_accuracy);
        }
        // Deeper exits see cleaner features and should rank accordingly.
        assert!(
            report.per_exit[2].test_accuracy > report.per_exit[0].test_accuracy,
            "{:?}",
            report.per_exit
        );
    }

    #[test]
    fn capability_count_is_validated() {
        let err = MultiExitTrainer::new(
            &placement(),
            vec![0.5],
            6,
            DifficultyDistribution::default(),
            0.9,
            0,
        )
        .unwrap_err();
        assert!(matches!(err, ExitError::InvalidPlacement(_)));
    }

    #[test]
    fn joint_training_is_deterministic() {
        let run = |seed| {
            let mut t = MultiExitTrainer::new(
                &placement(),
                vec![0.4, 0.7, 0.9],
                5,
                DifficultyDistribution::default(),
                0.85,
                seed,
            )
            .expect("valid setup");
            t.train(2, 6, 12, seed + 1).expect("training runs")
        };
        assert_eq!(run(11), run(11));
    }
}
