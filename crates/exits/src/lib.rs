//! # hadas-exits
//!
//! The exit subspace **X** of the HADAS reproduction: everything about
//! early-exit branches short of searching over them (the search lives in
//! the `hadas` core crate's inner optimization engine).
//!
//! * [`ExitPlacement`] — a validated set of exit positions over a backbone,
//!   following the paper's rules: candidate positions sit after MBConv
//!   layers, at layer-wise granularity, starting from the **fifth** layer;
//!   the number of exits ranges over `[1, Σlᵢ − 5]`.
//! * [`exit_head_cost`] — the analytical cost of the paper's fixed exit
//!   structure (one conv + BN + activation block, then a classifier), in
//!   the same [`hadas_space::LayerInfo`] currency the hardware simulator
//!   prices.
//! * [`ExitHead`] / [`FeatureSimulator`] / [`ExitTrainer`] — a *real*
//!   training path: a frozen-backbone feature simulator feeds synthetic
//!   per-sample feature maps into a genuine conv exit head trained with
//!   the hybrid NLL + knowledge-distillation loss of paper eq. (4), using
//!   the `hadas-nn` micro framework. This exercises the full training
//!   code path that the paper runs on a 32-GPU cluster, at laptop scale.
//!   [`ExitTrainer::train_with`] trains one head or all heads of a
//!   placement jointly (§IV-B.2) through the shared guarded loop
//!   ([`hadas_nn::train_guarded`]); [`MultiExitTrainer`] builds a
//!   placement's heads and simulators and trains them that way.
//!
//! ```
//! use hadas_exits::ExitPlacement;
//!
//! # fn main() -> Result<(), hadas_exits::ExitError> {
//! // A backbone with 20 MBConv layers admits exits at positions 5..=20.
//! let p = ExitPlacement::new(vec![5, 9, 14], 20)?;
//! assert_eq!(p.positions(), &[5, 9, 14]);
//! assert!(ExitPlacement::new(vec![3], 20).is_err(), "before the 5th layer");
//! # Ok(())
//! # }
//! ```

mod cost;
mod error;
mod head;
mod multi;
mod placement;
mod simulator;
mod trainer;

pub use cost::exit_head_cost;
pub use error::ExitError;
pub use head::ExitHead;
pub use multi::{MultiExitReport, MultiExitTrainer};
pub use placement::ExitPlacement;
pub use simulator::FeatureSimulator;
pub use trainer::{ExitTrainer, TrainReport};

/// First layer (1-based) at which the paper allows an exit.
pub const MIN_EXIT_POSITION: usize = 5;
