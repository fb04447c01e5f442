//! Process-wide kernel counters for the observability layer.
//!
//! The hot kernels in this crate — the three matmul variants, the
//! `im2col`/`col2im` lowerings and the [`par`](crate::par) pool — bump a
//! small set of relaxed atomics here. `dinar-telemetry` bridges snapshots of
//! these counters into its metrics registry; keeping the raw counters in
//! this crate avoids a dependency cycle (telemetry depends on tensor for
//! JSON, not the other way around).
//!
//! # Determinism
//!
//! The kernel counters (`matmul_*`, `im2col_*`, `col2im_*`) count *logical*
//! work: one increment per kernel call on the calling thread, with values
//! derived from tensor shapes alone. They are therefore identical for any
//! pool width. The pool counters (`pool_*`) count *scheduling* — how many
//! regions actually fanned out and how wide — and legitimately vary with
//! `DINAR_THREADS`; consumers must treat them as volatile (the telemetry
//! bridge tags them so).
//!
//! Counters are process-global and monotone; callers that want per-phase
//! numbers take a [`snapshot`] before and after and diff with
//! [`KernelSnapshot::delta_since`].

use std::sync::atomic::{AtomicU64, Ordering};

static MATMUL_CALLS: AtomicU64 = AtomicU64::new(0);
static MATMUL_FLOPS: AtomicU64 = AtomicU64::new(0);
static IM2COL_CALLS: AtomicU64 = AtomicU64::new(0);
static IM2COL_BYTES: AtomicU64 = AtomicU64::new(0);
static COL2IM_CALLS: AtomicU64 = AtomicU64::new(0);
static COL2IM_BYTES: AtomicU64 = AtomicU64::new(0);
static POOL_REGIONS: AtomicU64 = AtomicU64::new(0);
static POOL_TASKS: AtomicU64 = AtomicU64::new(0);
static POOL_MAX_WIDTH: AtomicU64 = AtomicU64::new(0);
static PARAM_COPY_CALLS: AtomicU64 = AtomicU64::new(0);
static PARAM_COPY_BYTES: AtomicU64 = AtomicU64::new(0);
static PARAM_SHARE_CALLS: AtomicU64 = AtomicU64::new(0);
static RNG_SAMPLES: AtomicU64 = AtomicU64::new(0);

/// Record a matmul-family call over an `[m, k] x [k, n]` problem
/// (`2 * m * k * n` flops, the standard multiply-add count).
pub(crate) fn record_matmul(m: usize, k: usize, n: usize) {
    MATMUL_CALLS.fetch_add(1, Ordering::Relaxed);
    let flops = 2u64
        .saturating_mul(m as u64)
        .saturating_mul(k as u64)
        .saturating_mul(n as u64);
    MATMUL_FLOPS.fetch_add(flops, Ordering::Relaxed);
}

/// Record an `im2col` lowering that materialized `bytes` of patch rows.
pub(crate) fn record_im2col(bytes: u64) {
    IM2COL_CALLS.fetch_add(1, Ordering::Relaxed);
    IM2COL_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Record a `col2im` fold that materialized `bytes` of output.
pub(crate) fn record_col2im(bytes: u64) {
    COL2IM_CALLS.fetch_add(1, Ordering::Relaxed);
    COL2IM_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Record a pool region that actually fanned out into `tasks` parts: one
/// on the thread that opened it, `tasks − 1` on scoped threads.
pub(crate) fn record_pool_region(tasks: u64) {
    POOL_REGIONS.fetch_add(1, Ordering::Relaxed);
    POOL_TASKS.fetch_add(tasks, Ordering::Relaxed);
    POOL_MAX_WIDTH.fetch_max(tasks, Ordering::Relaxed);
}

/// Record a deep copy of a tensor buffer (`bytes` actually duplicated).
pub(crate) fn record_buffer_copy(bytes: u64) {
    PARAM_COPY_CALLS.fetch_add(1, Ordering::Relaxed);
    PARAM_COPY_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Record an O(1) share of a tensor buffer (a clone that duplicated nothing).
pub(crate) fn record_buffer_share() {
    PARAM_SHARE_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` bulk RNG samples (one per element filled). Counted per
/// logical fill on the calling thread from the request length alone, so —
/// like the other kernel counters — the value is pool-width independent;
/// scalar draws are deliberately not counted (they are not kernel work, and
/// instrumenting them would put an atomic on a one-sample path).
pub(crate) fn record_rng_samples(n: usize) {
    RNG_SAMPLES.fetch_add(n as u64, Ordering::Relaxed);
}

/// A point-in-time copy of the parameter-plane counters.
///
/// Kept separate from [`KernelSnapshot`] so the telemetry bridge (and its
/// golden snapshot) is unaffected: these counters serve the `bench_params`
/// copy-traffic artifact, not the metrics registry. Copies are counted per
/// logical buffer duplication on the duplicating thread, so the numbers are
/// pool-width independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParamSnapshot {
    /// Tensor buffers deep-copied (clones that duplicated memory).
    pub copy_calls: u64,
    /// Bytes those copies duplicated.
    pub copy_bytes: u64,
    /// Tensor buffers shared by refcount bump (clones that duplicated
    /// nothing).
    pub share_calls: u64,
}

impl ParamSnapshot {
    /// Counter increments between `earlier` and `self` (saturating).
    pub fn delta_since(&self, earlier: &ParamSnapshot) -> ParamSnapshot {
        ParamSnapshot {
            copy_calls: self.copy_calls.saturating_sub(earlier.copy_calls),
            copy_bytes: self.copy_bytes.saturating_sub(earlier.copy_bytes),
            share_calls: self.share_calls.saturating_sub(earlier.share_calls),
        }
    }
}

/// Reads the parameter-plane counters at once.
pub fn param_snapshot() -> ParamSnapshot {
    ParamSnapshot {
        copy_calls: PARAM_COPY_CALLS.load(Ordering::Relaxed),
        copy_bytes: PARAM_COPY_BYTES.load(Ordering::Relaxed),
        share_calls: PARAM_SHARE_CALLS.load(Ordering::Relaxed),
    }
}

/// A point-in-time copy of every kernel counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// Calls to `matmul` / `matmul_t` / `t_matmul`.
    pub matmul_calls: u64,
    /// Total `2 * m * k * n` flops across those calls.
    pub matmul_flops: u64,
    /// Calls to `im2col2d` / `im2col1d`.
    pub im2col_calls: u64,
    /// Bytes of patch rows those calls materialized.
    pub im2col_bytes: u64,
    /// Calls to `col2im2d` / `col2im1d`.
    pub col2im_calls: u64,
    /// Bytes of folded output those calls materialized.
    pub col2im_bytes: u64,
    /// Parallel regions that fanned out (width > 1). **Volatile**: varies
    /// with the pool width.
    pub pool_regions: u64,
    /// Parts those regions ran. The opening thread runs one part of each
    /// region itself, so scoped threads spawned = `pool_tasks −
    /// pool_regions`. **Volatile**.
    pub pool_tasks: u64,
    /// Widest single fan-out observed. **Volatile**.
    pub pool_max_width: u64,
    /// Bulk RNG samples drawn (`fill_uniform` / `fill_normal` /
    /// `axpy_normal` elements) — the per-round noise volume.
    pub rng_samples: u64,
}

impl KernelSnapshot {
    /// Counter increments between `earlier` and `self` (fields saturate at
    /// zero if `earlier` was taken after a [`reset`]).
    pub fn delta_since(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            matmul_calls: self.matmul_calls.saturating_sub(earlier.matmul_calls),
            matmul_flops: self.matmul_flops.saturating_sub(earlier.matmul_flops),
            im2col_calls: self.im2col_calls.saturating_sub(earlier.im2col_calls),
            im2col_bytes: self.im2col_bytes.saturating_sub(earlier.im2col_bytes),
            col2im_calls: self.col2im_calls.saturating_sub(earlier.col2im_calls),
            col2im_bytes: self.col2im_bytes.saturating_sub(earlier.col2im_bytes),
            pool_regions: self.pool_regions.saturating_sub(earlier.pool_regions),
            pool_tasks: self.pool_tasks.saturating_sub(earlier.pool_tasks),
            // A high-water mark, not a sum: the delta keeps the later value.
            pool_max_width: self.pool_max_width,
            rng_samples: self.rng_samples.saturating_sub(earlier.rng_samples),
        }
    }
}

/// Reads every counter at once.
pub fn snapshot() -> KernelSnapshot {
    KernelSnapshot {
        matmul_calls: MATMUL_CALLS.load(Ordering::Relaxed),
        matmul_flops: MATMUL_FLOPS.load(Ordering::Relaxed),
        im2col_calls: IM2COL_CALLS.load(Ordering::Relaxed),
        im2col_bytes: IM2COL_BYTES.load(Ordering::Relaxed),
        col2im_calls: COL2IM_CALLS.load(Ordering::Relaxed),
        col2im_bytes: COL2IM_BYTES.load(Ordering::Relaxed),
        pool_regions: POOL_REGIONS.load(Ordering::Relaxed),
        pool_tasks: POOL_TASKS.load(Ordering::Relaxed),
        pool_max_width: POOL_MAX_WIDTH.load(Ordering::Relaxed),
        rng_samples: RNG_SAMPLES.load(Ordering::Relaxed),
    }
}

/// Zeroes every counter. Intended for single-threaded harness setup; calls
/// racing with live kernels lose increments, which only skews profiles.
pub fn reset() {
    MATMUL_CALLS.store(0, Ordering::Relaxed);
    MATMUL_FLOPS.store(0, Ordering::Relaxed);
    IM2COL_CALLS.store(0, Ordering::Relaxed);
    IM2COL_BYTES.store(0, Ordering::Relaxed);
    COL2IM_CALLS.store(0, Ordering::Relaxed);
    COL2IM_BYTES.store(0, Ordering::Relaxed);
    POOL_REGIONS.store(0, Ordering::Relaxed);
    POOL_TASKS.store(0, Ordering::Relaxed);
    POOL_MAX_WIDTH.store(0, Ordering::Relaxed);
    PARAM_COPY_CALLS.store(0, Ordering::Relaxed);
    PARAM_COPY_BYTES.store(0, Ordering::Relaxed);
    PARAM_SHARE_CALLS.store(0, Ordering::Relaxed);
    RNG_SAMPLES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn matmul_counts_calls_and_flops() {
        let before = snapshot();
        let a = Tensor::ones(&[4, 3]);
        let b = Tensor::ones(&[3, 5]);
        a.matmul(&b).unwrap();
        let d = snapshot().delta_since(&before);
        assert!(d.matmul_calls >= 1);
        // Concurrent tests may add their own flops; ours are at least 2*4*3*5.
        assert!(d.matmul_flops >= 120);
    }

    #[test]
    fn transposed_variants_count_too() {
        let before = snapshot();
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 3]);
        a.matmul_t(&b).unwrap();
        let c = Tensor::ones(&[2, 5]);
        a.t_matmul(&c).unwrap();
        let d = snapshot().delta_since(&before);
        assert!(d.matmul_calls >= 2);
    }

    #[test]
    fn im2col_counts_bytes() {
        use crate::conv::{im2col2d, Conv2dGeom};
        let geom = Conv2dGeom {
            channels: 1,
            height: 4,
            width: 4,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            padding: 0,
        };
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let before = snapshot();
        let cols = im2col2d(&x, &geom).unwrap();
        let d = snapshot().delta_since(&before);
        assert!(d.im2col_calls >= 1);
        assert!(d.im2col_bytes >= cols.len() as u64 * 4);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let later = KernelSnapshot::default();
        let earlier = KernelSnapshot {
            matmul_calls: 10,
            ..KernelSnapshot::default()
        };
        assert_eq!(later.delta_since(&earlier).matmul_calls, 0);
    }
}
