//! Runtime numeric sanitizers (the `sanitize` cargo feature).
//!
//! Privacy-mechanism implementations fail *silently*: a NaN-poisoned
//! gradient propagates through FedAvg, the obfuscation layer and the attack
//! evaluation without a single error, and the only symptom is a nonsensical
//! AUC three layers downstream. With `--features sanitize`, the tensor hot
//! paths (`matmul` family, row broadcast, `im2col`/`col2im`) verify that
//! their operands and results are finite and panic **naming the op that
//! produced or first consumed the corruption**, so the failure is pinned to
//! its source instead of its symptom.
//!
//! The checks cost one pass over each operand, so they are compiled out
//! entirely unless the feature is enabled:
//!
//! ```text
//! cargo test -p dinar-tensor -p dinar-nn --features sanitize
//! ```
//!
//! The same feature gates the post-backward gradient checks in `dinar-nn`.

use crate::Tensor;

/// Panics if `t` contains a non-finite element, reporting the op, the
/// operand role and the flat index of the first offender.
///
/// Compiled to nothing without the `sanitize` feature.
#[inline]
pub fn check_finite(op: &str, role: &str, t: &Tensor) {
    #[cfg(feature = "sanitize")]
    {
        if let Some((i, x)) = t
            .as_slice()
            .iter()
            .enumerate()
            .find(|(_, x)| !x.is_finite())
        {
            // lint: allow(L012, the sanitize contract: fail loudly at the op that produced the NaN)
            panic!(
                "sanitize: `{op}` {role} contains non-finite value {x} at flat \
                 index {i} (shape {:?})",
                t.shape()
            );
        }
    }
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = (op, role, t);
    }
}

/// Panics if `values` (a raw buffer belonging to `op`) contains a non-finite
/// element. Used where the hot path works on slices before a `Tensor` is
/// constructed.
#[inline]
pub fn check_finite_slice(op: &str, role: &str, values: &[f32]) {
    #[cfg(feature = "sanitize")]
    {
        if let Some((i, x)) = values.iter().enumerate().find(|(_, x)| !x.is_finite()) {
            // lint: allow(L012, the sanitize contract: fail loudly at the op that produced the NaN)
            panic!("sanitize: `{op}` {role} contains non-finite value {x} at flat index {i}");
        }
    }
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = (op, role, values);
    }
}

/// Panics if an op's declared output shape does not match the tensor it
/// actually produced — the shape-contract check for lowered ops whose output
/// geometry is computed separately from the data (e.g. `im2col`).
///
/// Compiled to nothing without the `sanitize` feature.
#[inline]
pub fn check_shape_contract(op: &str, expected: &[usize], actual: &[usize]) {
    #[cfg(feature = "sanitize")]
    {
        assert!(
            expected == actual,
            "sanitize: `{op}` violated its shape contract: declared {expected:?}, \
             produced {actual:?}"
        );
    }
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = (op, expected, actual);
    }
}

/// `true` when the crate was built with the `sanitize` feature — lets
/// downstream test harnesses assert the sanitizer layer is actually armed.
pub const fn enabled() -> bool {
    cfg!(feature = "sanitize")
}

#[cfg(all(test, feature = "sanitize"))]
mod tests {
    use super::*;

    #[test]
    fn clean_tensors_pass() {
        let t = Tensor::from_slice(&[1.0, -2.0, 0.0]);
        check_finite("matmul", "lhs", &t);
        check_finite_slice("im2col2d", "input", t.as_slice());
        check_shape_contract("im2col2d", &[3], t.shape());
    }

    #[test]
    #[should_panic(expected = "`matmul` lhs contains non-finite")]
    fn nan_operand_names_the_op_and_role() {
        let t = Tensor::from_slice(&[1.0, f32::NAN]);
        check_finite("matmul", "lhs", &t);
    }

    #[test]
    #[should_panic(expected = "shape contract")]
    fn shape_contract_violation_panics() {
        check_shape_contract("col2im2d", &[2, 2], &[4]);
    }
}
