//! # hadas-nn
//!
//! A micro neural-network framework: the training substrate of the HADAS
//! reproduction. It supports exactly what multi-exit head training needs —
//! 2-D convolution, batch normalisation, ReLU/hard-swish activations,
//! linear classifiers, global average pooling, a [`Sequential`] container
//! with full forward/backward passes, negative log-likelihood and
//! knowledge-distillation losses (the hybrid loss of HADAS eq. (4)), an
//! SGD optimizer with momentum, and the one guarded epoch loop
//! ([`train_guarded`]) that every trainer runs.
//!
//! The paper trains exit heads with the *backbone frozen*; here that means
//! a backbone produces feature tensors (or a simulator stands in for it)
//! and only the exit-head [`Sequential`] owns trainable parameters.
//!
//! ```
//! use hadas_nn::{Linear, Relu, Sequential, Sgd, nll_loss};
//! use hadas_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), hadas_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Linear::new(&mut rng, 4, 8));
//! net.push(Relu::new());
//! net.push(Linear::new(&mut rng, 8, 3));
//!
//! let x = Tensor::ones(&[2, 4]);
//! let logits = net.forward(&x)?;
//! let (loss, grad) = nll_loss(&logits, &[0, 2])?;
//! net.backward(&grad)?;
//! let mut opt = Sgd::new(0.1, 0.9, 0.0);
//! opt.step(net.params_mut());
//! assert!(loss.is_finite());
//! # Ok(())
//! # }
//! ```

mod act;
mod bn;
mod conv;
mod error;
mod guard;
mod guarded;
mod linear;
mod loss;
mod metrics;
mod optim;
mod param;
mod pool;
pub mod seal;
mod sequential;
mod train_state;

pub use act::{HSwish, Relu};
pub use bn::BatchNorm2d;
pub use conv::Conv2d;
pub use error::NnError;
pub use guard::{GuardConfig, NumericAnomaly, TrainGuard, TrainTelemetry};
pub use guarded::{train_guarded, LoopOptions, LoopOutcome, LoopPlan, Trainable, WithLoopOptions};
pub use linear::Linear;
pub use loss::{hybrid_exit_loss, kd_loss, nll_loss};
pub use metrics::accuracy;
pub use optim::Sgd;
pub use param::Param;
pub use pool::GlobalAvgPool;
pub use sequential::{Layer, Sequential};
pub use train_state::{TrainCheckpoint, TRAIN_CHECKPOINT_SCHEMA};
