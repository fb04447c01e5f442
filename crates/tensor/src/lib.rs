//! # dinar-tensor
//!
//! Dense `f32` tensor library that serves as the numerical substrate of the
//! DINAR reproduction. The paper's prototype runs on PyTorch 1.13; this crate
//! provides the equivalent primitives needed by the neural-network stack in
//! `dinar-nn`:
//!
//! * an owned, contiguous, row-major [`Tensor`] with elementwise arithmetic,
//!   matrix multiplication, reductions and shape manipulation,
//! * `im2col`/`col2im` lowering for 1-D and 2-D convolutions ([`conv`]),
//! * a deterministic, splittable random number generator ([`rng::Rng`]) with
//!   uniform and Gaussian (Box–Muller) sampling so that every experiment in
//!   the paper's evaluation is reproducible from a seed, plus a
//!   counter-based bulk sampler ([`cbrng::CbRng`]) whose chunked
//!   `fill_uniform`/`fill_normal` paths make per-round noise draws cheap
//!   without giving up bit-exact reproducibility,
//! * live/peak allocation accounting ([`alloc`]) used to reproduce the
//!   memory-overhead column of Table 3 without a GPU.
//!
//! # Example
//!
//! ```
//! use dinar_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), dinar_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod cast;
pub mod cbrng;
pub mod conv;
mod error;
pub mod json;
mod kernels;
pub mod par;
pub mod profile;
pub mod rng;
pub mod sanitize;
pub mod storage;
mod tensor;
pub mod wire;

pub use cbrng::CbRng;
pub use error::TensorError;
pub use rng::{Rng, RngState};
pub use storage::{Buffer, Dtype, Element, F16};
pub use tensor::Tensor;

/// Crate-wide result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
