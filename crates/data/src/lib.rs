//! # dinar-data
//!
//! Dataset substrate of the DINAR reproduction.
//!
//! The paper evaluates on seven real datasets (Table 2): CIFAR-10, CIFAR-100,
//! GTSRB, CelebA, Speech Commands, Purchase100 and Texas100. Those datasets
//! (and the GPU needed to train on them) are not available here, so this
//! crate provides **synthetic generators with matching schema** — same
//! feature modality (image / audio / binary tabular), same class structure,
//! and a *controllable generalization gap*, which is the one property every
//! experiment in the paper measures (membership inference exploits exactly
//! the member/non-member loss gap).
//!
//! Generation is a pure function of the caller's [`dinar_tensor::Rng`] and
//! fans out over the worker pool without changing a bit: image and tabular
//! rows take a fixed number of draws, so each parallel part starts from a
//! copy of the stream advanced to its first row, and every row is drawn
//! straight into its shuffled place (see [`synth`]).
//!
//! The crate also implements the paper's data protocol:
//!
//! * the attacker-knowledge split of §5.1 (half the data to the attacker,
//!   the rest 80/20 into train/test) via [`split::AttackSplit`],
//! * disjoint per-client partitioning, IID or Dirichlet(α) non-IID as in
//!   §5.8, via [`partition`].
//!
//! # Example
//!
//! ```
//! use dinar_data::catalog::{self, Profile};
//! use dinar_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let ds = catalog::purchase100(Profile::Mini).generate(&mut rng)?;
//! assert!(ds.len() > 0);
//! let batch = ds.batch(&[0, 1, 2])?;
//! assert_eq!(batch.features.shape()[0], 3);
//! # Ok::<(), dinar_data::DataError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod csv;
pub mod dataset;
mod error;
pub mod normalize;
pub mod partition;
pub mod split;
pub mod synth;

pub use dataset::{Batch, Dataset};
pub use error::DataError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
