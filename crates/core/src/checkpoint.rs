//! Search checkpoints: serialize the OOE's whole resumable state — the
//! population, the evaluation history (with nested IOE results), and the
//! RNG's exact stream position — so a search killed mid-run (OOM, power
//! loss, Ctrl-C) continues from the last generation boundary instead of
//! starting over.
//!
//! The contract the chaos tests pin: with the same `HadasConfig`, a run
//! killed after generation `k` and resumed from its checkpoint produces
//! a **byte-identical** serialized Pareto front to an uninterrupted run.
//! Everything needed for that is in the file: genomes re-decode through
//! the search space, exit placements rebuild from positions, and the RNG
//! restarts from its four-word xoshiro state.
//!
//! The checkpoint is a sealed artifact ([`crate::seal`]): written
//! atomically, and refused on load when its schema is stale or its
//! content fingerprint does not match.

use crate::{
    DynamicFitness, EvaluatedBackbone, HadasConfig, HadasError, IoeOutcome, IoeSolution,
    StaticFitness,
};
use hadas_exits::ExitPlacement;
use hadas_hw::DvfsSetting;
use hadas_nn::seal::Sealed;
use hadas_space::SearchSpace;
use serde::{Deserialize, Serialize};

/// Schema version of the checkpoint file; bump on breaking layout change.
/// v2: sealed, with a content fingerprint.
pub const CHECKPOINT_SCHEMA: u32 = 2;

/// One serialized inner-engine solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSolution {
    /// Exit positions of the placement.
    pub positions: Vec<usize>,
    /// Total MBConv layers of the backbone (placement domain).
    pub total_layers: usize,
    /// DVFS ladder indices.
    pub dvfs: DvfsSetting,
    /// Exact re-measured dynamic fitness.
    pub fitness: DynamicFitness,
}

impl CheckpointSolution {
    fn from_solution(s: &IoeSolution) -> Self {
        CheckpointSolution {
            positions: s.placement.positions().to_vec(),
            total_layers: s.placement.total_layers(),
            dvfs: s.dvfs,
            fitness: s.fitness,
        }
    }

    fn to_solution(&self) -> Result<IoeSolution, HadasError> {
        Ok(IoeSolution {
            placement: ExitPlacement::new(self.positions.clone(), self.total_layers)
                .map_err(|e| HadasError::Checkpoint(format!("invalid stored placement: {e}")))?,
            dvfs: self.dvfs,
            fitness: self.fitness,
        })
    }
}

/// One serialized inner-engine outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointIoe {
    /// Every evaluated `(x, f)` point, in evaluation order.
    pub history: Vec<CheckpointSolution>,
    /// The exact-measured Pareto subset.
    pub pareto: Vec<CheckpointSolution>,
}

/// One serialized outer-engine history entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointBackbone {
    /// The backbone genome (re-decoded through the space on resume).
    pub genome: Vec<usize>,
    /// Static fitness at default DVFS.
    pub fitness: StaticFitness,
    /// Generation of first evaluation.
    pub generation: usize,
    /// Nested IOE outcome, if this backbone was promoted.
    pub ioe: Option<CheckpointIoe>,
}

/// The whole resumable search state at one generation boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// Layout version ([`CHECKPOINT_SCHEMA`]).
    pub schema: u32,
    /// Content fingerprint, stamped when written ([`crate::seal`]); zero
    /// in memory.
    pub fingerprint: u64,
    /// The configuration the interrupted run used. Resume refuses a
    /// mismatched config — splicing streams would silently break the
    /// determinism contract.
    pub config: HadasConfig,
    /// The next generation to execute (0-based).
    pub generation: usize,
    /// The outer RNG's xoshiro256** state at the generation boundary.
    pub rng_state: [u64; 4],
    /// The current population's genomes.
    pub population: Vec<Vec<usize>>,
    /// Every backbone evaluated so far, in evaluation order.
    pub history: Vec<CheckpointBackbone>,
}

impl SearchCheckpoint {
    /// Builds a checkpoint from live OOE state.
    pub fn capture(
        config: &HadasConfig,
        generation: usize,
        rng_state: [u64; 4],
        population: &[Vec<usize>],
        history: &[EvaluatedBackbone],
    ) -> Self {
        SearchCheckpoint {
            schema: CHECKPOINT_SCHEMA,
            fingerprint: 0,
            config: config.clone(),
            generation,
            rng_state,
            population: population.to_vec(),
            history: history
                .iter()
                .map(|b| CheckpointBackbone {
                    genome: b.subnet.genome().genes().to_vec(),
                    fitness: b.fitness,
                    generation: b.generation,
                    ioe: b.ioe.as_ref().map(|o| CheckpointIoe {
                        history: o.history.iter().map(CheckpointSolution::from_solution).collect(),
                        pareto: o.pareto.iter().map(CheckpointSolution::from_solution).collect(),
                    }),
                })
                .collect(),
        }
    }

    /// Rebuilds the evaluated-backbone history against `space`.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Checkpoint`] if a stored genome no longer
    /// decodes in the space or a stored placement is invalid.
    pub fn restore_history(
        &self,
        space: &SearchSpace,
    ) -> Result<Vec<EvaluatedBackbone>, HadasError> {
        let mut out = Vec::with_capacity(self.history.len());
        for b in &self.history {
            let subnet =
                space.decode(&hadas_space::Genome::from_genes(b.genome.clone())).map_err(|e| {
                    HadasError::Checkpoint(format!("stored genome no longer decodes: {e}"))
                })?;
            let ioe = match &b.ioe {
                None => None,
                Some(o) => Some(IoeOutcome {
                    history: o
                        .history
                        .iter()
                        .map(CheckpointSolution::to_solution)
                        .collect::<Result<_, _>>()?,
                    pareto: o
                        .pareto
                        .iter()
                        .map(CheckpointSolution::to_solution)
                        .collect::<Result<_, _>>()?,
                }),
            };
            out.push(EvaluatedBackbone {
                subnet,
                fitness: b.fitness,
                generation: b.generation,
                ioe,
            });
        }
        Ok(out)
    }

    /// Checks that this checkpoint belongs to `config`. The schema is
    /// checked when the file loads.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Checkpoint`] on a config mismatch or an
    /// empty population.
    pub fn validate_against(&self, config: &HadasConfig) -> Result<(), HadasError> {
        if &self.config != config {
            return Err(HadasError::Checkpoint(
                "checkpoint was produced by a different configuration; \
                 resume with the same target, scale, and seed"
                    .into(),
            ));
        }
        if self.population.is_empty() {
            return Err(HadasError::Checkpoint("checkpoint has an empty population".into()));
        }
        Ok(())
    }
}

impl Sealed for SearchCheckpoint {
    const SCHEMA: u32 = CHECKPOINT_SCHEMA;
    const NAME: &'static str = "search checkpoint";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{seal, Hadas};
    use hadas_hw::HwTarget;

    fn roundtrip_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hadas-ckpt-test-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let config = HadasConfig::smoke_test();
        let outcome = hadas.run(&config).unwrap();
        let population: Vec<Vec<usize>> = outcome
            .backbones()
            .iter()
            .take(4)
            .map(|b| b.subnet.genome().genes().to_vec())
            .collect();
        let ckpt =
            SearchCheckpoint::capture(&config, 2, [1, 2, 3, 4], &population, outcome.backbones());

        let path = roundtrip_path("roundtrip");
        seal::write(&path, &ckpt).unwrap();
        let loaded: SearchCheckpoint = seal::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_ne!(loaded.fingerprint, 0, "writing stamps a content fingerprint");
        assert_eq!(SearchCheckpoint { fingerprint: loaded.fingerprint, ..ckpt }, loaded);
        loaded.validate_against(&config).unwrap();

        let restored = loaded.restore_history(hadas.space()).unwrap();
        assert_eq!(restored.len(), outcome.backbones().len());
        for (a, b) in restored.iter().zip(outcome.backbones()) {
            assert_eq!(a.subnet.genome().genes(), b.subnet.genome().genes());
            assert_eq!(a.fitness, b.fitness);
            assert_eq!(a.ioe.is_some(), b.ioe.is_some());
        }
    }

    #[test]
    fn validate_rejects_mismatched_configs_and_empty_populations() {
        let config = HadasConfig::smoke_test();
        let ckpt = SearchCheckpoint::capture(&config, 0, [0; 4], &[vec![0; 4]], &[]);
        assert!(ckpt.validate_against(&config).is_ok());
        assert!(ckpt.validate_against(&config.clone().with_seed(99)).is_err());
        let mut empty = ckpt;
        empty.population.clear();
        assert!(empty.validate_against(&config).is_err());
    }

    /// Missing, unparsable and half-written files are refused by the seal
    /// itself (`seal` tests); here a checkpoint with one genome digit
    /// edited, or a stale schema tag, must be refused by name.
    #[test]
    fn load_surfaces_missing_and_corrupt_files() {
        let config = HadasConfig::smoke_test();
        let ckpt = SearchCheckpoint::capture(&config, 0, [0; 4], &[vec![1, 2, 3, 4]], &[]);
        let path = roundtrip_path("corrupt");
        seal::write(&path, &ckpt).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let genomes = json.find("\"population\"").unwrap();
        let digit = genomes + json[genomes..].find(|c: char| c.is_ascii_digit()).unwrap();
        let edited_genome = format!("{}9{}", &json[..digit], &json[digit + 1..]);
        let stale_schema = json.replacen("\"schema\": 2", "\"schema\": 1", 1);
        for (corrupt, refusal) in [(edited_genome, "fingerprint"), (stale_schema, "schema")] {
            std::fs::write(&path, corrupt).unwrap();
            let err = HadasError::from(seal::load::<SearchCheckpoint>(&path).unwrap_err());
            assert!(matches!(&err, HadasError::Checkpoint(m) if m.contains(refusal)), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }
}
