//! # hadas-tensor
//!
//! A small, dependency-light dense tensor library used as the numeric
//! substrate of the HADAS reproduction. It provides exactly the primitives
//! the micro neural-network framework (`hadas-nn`) and the weight-sharing
//! supernet (`hadas-supernet`) need to train on synthetic data: shaped
//! `f32` buffers, element-wise maps, reductions, matrix multiplication,
//! and 2-D convolution.
//!
//! Convolution runs on [`ConvKernel`], an implicit GEMM: the input is
//! copied once into a zero-padded buffer, and each output channel's
//! row of `n·oh·ow` pixels is summed straight from it, tap by tap, on a
//! register tile, so no patch matrix is built. The row-major
//! [`im2col`]/[`col2im`] remain as the reference the kernel equals bit
//! for bit.
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

pub use conv::{col2im, im2col, Conv2dGeometry, ConvKernel};
pub use error::TensorError;
pub use init::{kaiming_uniform, normal, uniform};
pub use shape::Shape;
pub use tensor::Tensor;
