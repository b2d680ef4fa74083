//! # hadas
//!
//! The core of the HADAS reproduction: **H**ardware-**A**ware **D**ynamic
//! neural **A**rchitecture **S**earch (Bouzidi et al., DATE 2023).
//!
//! HADAS jointly optimises three coupled subspaces for dynamic neural
//! networks on edge SoCs:
//!
//! * **B** — backbone architectures (subnets of an AttentiveNAS-style
//!   supernet, from `hadas-space`),
//! * **X** — early-exit placements (from `hadas-exits`),
//! * **F** — DVFS settings of the target device (from `hadas-hw`),
//!
//! as a bi-level problem (paper eq. (1)–(2)): an [`Ooe`] (outer
//! optimization engine) searches **B** under static objectives
//! `S = (accuracy, latency, energy)`, and for each promising backbone
//! invokes an [`Ioe`] (inner optimization engine) that co-searches
//! **X** × **F** under the dynamic score `D` of eq. (5)–(7), including the
//! `dissimᵞ` regularizer.
//!
//! ```no_run
//! use hadas::{Hadas, HadasConfig};
//! use hadas_hw::HwTarget;
//!
//! # fn main() -> Result<(), hadas::HadasError> {
//! let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
//! let result = hadas.run(&HadasConfig::smoke_test())?;
//! for model in result.pareto_models() {
//!     println!(
//!         "acc {:.2}%  energy {:.1} mJ  exits {:?}",
//!         model.dynamic.accuracy_pct,
//!         model.dynamic.energy_mj,
//!         model.placement.positions()
//!     );
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The two engines are deterministic given [`HadasConfig::seed`]; every
//! table and figure of the paper regenerates from `hadas-bench` binaries.

mod checkpoint;
pub mod clock;
mod config;
mod controller;
mod deployment;
mod dynmodel;
mod error;
pub mod executor;
mod ioe;
mod objectives;
mod ooe;
pub mod related;
pub mod report;
mod resilience;

pub use checkpoint::{
    CheckpointBackbone, CheckpointIoe, CheckpointSolution, SearchCheckpoint, CHECKPOINT_SCHEMA,
};
pub use clock::Deadline;
pub use config::{EngineBudget, HadasConfig};
pub use controller::{
    simulate_stream, Controller, EntropyController, ExitDecision, IdealController,
    MarginController, StreamReport,
};
pub use deployment::DeploymentPicker;
pub use dynmodel::{DynamicEvaluation, DynamicModel};
pub use error::HadasError;
pub use executor::{ExecTelemetry, FateResolver};
pub use hadas_nn::seal;
pub use ioe::{Ioe, IoeOutcome, IoeSolution};
pub use objectives::{DynamicFitness, StaticFitness};
pub use ooe::{EvaluatedBackbone, JointModel, Ooe, OoeOutcome, SearchOptions};
pub use resilience::{
    AttemptOutcome, BreakerState, CircuitBreaker, FaultModel, NoFaults, RetryPolicy, RetryReceipt,
    SearchTelemetry,
};

use hadas_accuracy::AccuracyModel;
use hadas_hw::{CostModel, DeviceModel, HwTarget};
use hadas_space::SearchSpace;
use std::sync::Arc;

/// The assembled HADAS framework: search space, accuracy surrogate, and
/// hardware cost model for one deployment target.
///
/// The cost model is pluggable: the calibrated hardware-in-the-loop
/// simulator ([`DeviceModel`]) by default, or a learned proxy
/// ([`hadas_hw::ProxyCostModel`] via [`Hadas::with_cost_model`]) for the
/// fast-search mode the paper's §V-A discusses.
#[derive(Debug, Clone)]
pub struct Hadas {
    space: SearchSpace,
    accuracy: AccuracyModel,
    device: Arc<dyn CostModel>,
}

impl Hadas {
    /// Assembles the framework from explicit components with the exact
    /// (hardware-in-the-loop) cost model.
    pub fn new(space: SearchSpace, accuracy: AccuracyModel, device: DeviceModel) -> Self {
        Hadas { space, accuracy, device: Arc::new(device) }
    }

    /// Assembles the framework around any [`CostModel`] — e.g. a fitted
    /// [`hadas_hw::ProxyCostModel`] replacing hardware in the loop.
    pub fn with_cost_model(
        space: SearchSpace,
        accuracy: AccuracyModel,
        device: Arc<dyn CostModel>,
    ) -> Self {
        Hadas { space, accuracy, device }
    }

    /// The standard configuration for one of the paper's four hardware
    /// targets: AttentiveNAS space, CIFAR-100 surrogate, calibrated device.
    pub fn for_target(target: HwTarget) -> Self {
        Hadas::new(
            SearchSpace::attentive_nas(),
            AccuracyModel::cifar100(),
            DeviceModel::for_target(target),
        )
    }

    /// The backbone search space **B**.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The accuracy surrogate.
    pub fn accuracy(&self) -> &AccuracyModel {
        &self.accuracy
    }

    /// The hardware cost model defining **F**.
    pub fn device(&self) -> &dyn CostModel {
        self.device.as_ref()
    }

    /// Runs the full bi-level search (OOE with nested IOEs).
    ///
    /// # Errors
    ///
    /// Propagates hardware or placement errors from the evaluation path
    /// (these indicate configuration bugs; a healthy run never errors).
    pub fn run(&self, config: &HadasConfig) -> Result<OoeOutcome, HadasError> {
        Ooe::new(self, config.clone()).run()
    }

    /// Runs the full bi-level search under explicit robustness options:
    /// fault-injected scoring, per-generation checkpointing, resume, and
    /// graceful early stop with a partial Pareto front.
    ///
    /// # Errors
    ///
    /// Returns configuration, checkpoint, or evaluation errors; transient
    /// substrate faults are absorbed per [`SearchOptions`], not returned.
    pub fn run_with(
        &self,
        config: &HadasConfig,
        opts: &SearchOptions,
    ) -> Result<OoeOutcome, HadasError> {
        Ooe::new(self, config.clone()).run_with(opts)
    }

    /// Runs only the inner engine for one fixed backbone (used for the
    /// "optimized baselines" comparison and the dissimilarity ablation).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors as in [`Hadas::run`].
    pub fn run_ioe(
        &self,
        subnet: &hadas_space::Subnet,
        config: &HadasConfig,
        seed: u64,
    ) -> Result<IoeOutcome, HadasError> {
        Ioe::new(self, subnet.clone(), config.clone()).run(seed)
    }

    /// Spends the same inner budget on pure random sampling — the NAS
    /// baseline ablation against the NSGA-II inner engine.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors as in [`Hadas::run`].
    pub fn run_ioe_random(
        &self,
        subnet: &hadas_space::Subnet,
        config: &HadasConfig,
        seed: u64,
    ) -> Result<IoeOutcome, HadasError> {
        Ioe::new(self, subnet.clone(), config.clone()).run_random(seed)
    }
}
