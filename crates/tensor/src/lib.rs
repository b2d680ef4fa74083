//! # hadas-tensor
//!
//! A small, dependency-light dense tensor library used as the numeric
//! substrate of the HADAS reproduction. It provides exactly the primitives
//! the micro neural-network framework (`hadas-nn`) and the weight-sharing
//! supernet (`hadas-supernet`) need to train on synthetic data: shaped
//! `f32` buffers, element-wise maps, reductions, matrix multiplication,
//! and 2-D convolution.
//!
//! Convolution runs on [`ConvKernel`]: the input is unfolded
//! channel-major ([`unfold`]: one row per kernel tap, one column per
//! output pixel of the batch), so the output is `W · cols`, one row of
//! `n·oh·ow` pixels per output channel, and the inner loops run over
//! pixels rather than over a few channels. [`fold`] is its adjoint. The
//! row-major [`im2col`]/[`col2im`] remain as the reference they equal,
//! transposed, bit for bit.
//!
//! Every operation is plain safe Rust over contiguous buffers with a
//! fixed summation order, so results are deterministic to the bit, and
//! all random initialisation goes through a caller-supplied seeded RNG.
//!
//! ```
//! use hadas_tensor::Tensor;
//!
//! # fn main() -> Result<(), hadas_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

mod conv;
mod error;
mod init;
mod linalg;
mod shape;
mod tensor;

pub use conv::{col2im, fold, im2col, unfold, Conv2dGeometry, ConvKernel};
pub use error::TensorError;
pub use init::{kaiming_uniform, normal, uniform};
pub use shape::Shape;
pub use tensor::Tensor;
