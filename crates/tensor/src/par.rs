//! Deterministic parallel compute layer: a scoped-thread fork-join pool,
//! and the owner of every compute thread in the workspace.
//!
//! Every figure in the paper's evaluation is gated on the same hot path —
//! `im2col` + `matmul` inside each client's local epochs — so the kernels in
//! [`crate::Tensor`] and [`crate::conv`] fan work out across OS threads. The
//! workspace builds hermetically (no rayon) and forbids `unsafe` on every
//! target, so this module provides the minimal safe, std-only substitute: [`std::thread::scope`]-based fork-join over
//! contiguous partitions of an output buffer, plus [`spawn_worker`] for the
//! long-lived threads of the threaded FL engine. No other file creates a
//! thread (lint L006).
//!
//! # Determinism contract
//!
//! Parallel results are **bit-identical for any thread count**, including 1:
//!
//! * Work is partitioned over *output* ranges, so every output element is
//!   written by exactly one thread.
//! * Kernels compute each output element in the same floating-point order
//!   regardless of which partition it lands in — partition boundaries select
//!   *who* computes an element, never *how*.
//! * Reductions ([`chunked_sum`], [`chunked_dot`], [`chunked_sumsq_f64`],
//!   [`chunked_sumsq_diff_f64`])
//!   always use fixed-size chunk boundaries (independent of the thread
//!   count) and combine the per-chunk partials in ascending chunk order, so
//!   the association order of the floating-point sum is a constant of the
//!   input length alone.
//!
//! The integration test `tests/parallel_determinism.rs` asserts the contract
//! for threads ∈ {1, 2, 4} over matmul, conv forward/backward and a full FL
//! round.
//!
//! # Grain rule
//!
//! Whether a region fans out is decided here and nowhere else. A caller
//! states what one granule of its region costs, in one unit — a
//! multiply-add for products, a byte read or written for elementwise, copy,
//! reduction and generation loops — and [`parts`] grants one part per whole
//! [`GRAIN`] of work, capped at the pool width. Below two grains the region
//! runs inline. A part count never changes a bit (the contract above), so
//! the rule decides speed only.
//!
//! # Thread count
//!
//! The pool width defaults to [`std::thread::available_parallelism`] and can
//! be pinned with the `DINAR_THREADS` environment variable (CI determinism
//! tests set it to exercise fixed widths; it is one of the two variables
//! the library crates may read, lint L019) or programmatically with
//! [`set_threads`].
//!
//! # Thread model
//!
//! One rule, in both FL engines: **one client, one core; a worker's nested
//! regions run inline.** A thread is a *pool worker* while it carries the
//! worker mark ([`in_parallel_region`]), and a worker that reaches a
//! parallel op executes it inline with `f(0, data)`. Three things carry the
//! mark:
//!
//! * a thread a region spawned for one of its parts, for its whole life;
//! * the thread that *opened* the region, for exactly the duration of the
//!   part it runs itself — a region of `P` parts spawns `P − 1` threads and
//!   the caller computes the first part; the caller's previous mark comes
//!   back when the region returns or unwinds;
//! * a [`spawn_worker`] thread, from its first instruction — the threaded
//!   engine's client threads in `dinar-fl`.
//!
//! So the in-process fan-out (`map_items_mut` over clients, which gives
//! each item a grain and so a part of its own) and the threaded engine (one
//! `spawn_worker` thread per client) both run every kernel of a client on
//! that client's own thread, and neither multiplies into clients × threads
//! oversubscription.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configured pool width; 0 means "not resolved yet".
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The worker mark: set while this thread is a pool worker, so nested
    /// parallel regions run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Holds the worker mark on the current thread; dropping it (on return or
/// on unwind) puts back whatever the thread carried before.
struct WorkerMark {
    was: bool,
}

impl WorkerMark {
    fn set() -> Self {
        WorkerMark {
            was: IN_POOL.with(|flag| flag.replace(true)),
        }
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_POOL.with(|flag| flag.set(self.was));
    }
}

/// The width `DINAR_THREADS` asks for if it is a positive integer,
/// otherwise [`std::thread::available_parallelism`], and at least 1.
fn width_from_env() -> usize {
    std::env::var("DINAR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// The process-wide pool width, resolved from the environment on first
/// use (see the module docs).
pub fn threads() -> usize {
    let current = THREADS.load(Ordering::Relaxed);
    if current != 0 {
        return current;
    }
    let resolved = width_from_env();
    // Only an unset width is resolved: a `set_threads` that lands between
    // the load and here keeps its value instead of being overwritten.
    match THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => resolved,
        Err(set) => set,
    }
}

/// Overrides the process-wide pool width (clamped to at least 1).
///
/// Intended for tests and harnesses that must compare fixed widths;
/// long-running code should configure via `DINAR_THREADS` instead.
pub fn set_threads(threads: usize) {
    THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// Restores the pool width to the environment's default.
pub fn reset_threads() {
    THREADS.store(width_from_env(), Ordering::Relaxed);
}

/// `true` while the current thread is a pool worker (nested regions run
/// inline there): inside a region part, or anywhere on a [`spawn_worker`]
/// thread.
pub fn in_parallel_region() -> bool {
    IN_POOL.with(Cell::get)
}

/// Starts a long-lived thread that is a pool worker from its first
/// instruction: every parallel op `f` reaches runs inline on this thread.
///
/// This is how a caller that needs one thread per *party* (an FL client
/// speaking over channels) gets it without each party's kernels fanning
/// out again. Join the handle: a panic in `f` surfaces there.
pub fn spawn_worker<T, F>(f: F) -> std::thread::JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::spawn(move || {
        let _mark = WorkerMark::set();
        f()
    })
}

/// Balanced partition of `granules` work units into `parts` contiguous
/// groups: the first `granules % parts` groups get one extra unit.
fn split_counts(granules: usize, parts: usize) -> Vec<usize> {
    let base = granules / parts;
    let extra = granules % parts;
    (0..parts).map(|p| base + usize::from(p < extra)).collect()
}

/// The least work one part of a region must carry to repay the thread it
/// needs, in multiply-adds or bytes read plus written (the module docs),
/// sized against the measured cost of a fan-out (DESIGN §8).
pub const GRAIN: usize = 1 << 21;

/// The grain rule: how many parts a region of `granules` granules, each
/// `work_per_granule` units of work (see [`GRAIN`]), splits into — one per
/// whole [`GRAIN`] of work, at most [`threads`] and at most `granules`, and
/// at least 1. [`for_each_part_mut`] asks nothing else.
pub fn parts(granules: usize, work_per_granule: usize) -> usize {
    let grains = granules.saturating_mul(work_per_granule) / GRAIN;
    threads().min(granules).min(grains).max(1)
}

/// Runs `f` over a balanced contiguous partition of `data`, in parallel.
///
/// `data` is split at multiples of `granule` elements (a "granule" is the
/// indivisible unit — e.g. one output row of length `n`), and the caller
/// states what one granule costs, `work_per_granule`, in [`GRAIN`]'s unit.
/// Each part is passed to `f` together with the element offset of its
/// first element: the first non-empty part on the calling thread, which is
/// a pool worker for exactly that call, and every other part on its own
/// scoped thread. The partition has [`parts`] parts; at one part (or on a
/// call from a worker thread) the whole slice is processed inline with
/// `f(0, data)`.
///
/// Determinism: `f` must compute each element of its part from `data`'s
/// coordinates alone (same FP order wherever the partition boundary falls);
/// then the result is bit-identical for every thread count.
///
/// A panic in any part (e.g. a `sanitize` check), the caller's own
/// included, propagates to the caller once the scope has joined the rest.
pub fn for_each_part_mut<T, F>(data: &mut [T], granule: usize, work_per_granule: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let granule = granule.max(1);
    debug_assert!(
        data.len() % granule == 0,
        "for_each_part_mut: len {} not a multiple of granule {granule}",
        data.len()
    );
    let granules = data.len() / granule;
    let parts = parts(granules, work_per_granule);
    if parts <= 1 || in_parallel_region() {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    let counts = split_counts(granules, parts);
    crate::profile::record_pool_region(counts.iter().filter(|&&c| c > 0).count() as u64);
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut offset = 0usize;
        let mut own = None;
        for (p, &count) in counts.iter().enumerate() {
            // The last part also absorbs any sub-granule tail.
            let take = if p + 1 == counts.len() {
                rest.len()
            } else {
                count * granule
            };
            let (part, tail) = rest.split_at_mut(take);
            rest = tail;
            let part_offset = offset;
            offset += take;
            if part.is_empty() {
                continue;
            }
            if own.is_none() {
                own = Some((part_offset, part));
                continue;
            }
            scope.spawn(move || {
                let _mark = WorkerMark::set();
                f(part_offset, part);
            });
        }
        // The others are running; the caller computes the first part.
        if let Some((part_offset, part)) = own {
            let _mark = WorkerMark::set();
            f(part_offset, part);
        }
    });
}

/// Applies `f` to every item of `items` in parallel (one logical task per
/// item) and returns the results **in item order**.
///
/// This is the fan-out primitive for coarse-grained, data-independent tasks
/// — one FL client's local round, for example. Each worker thread processes
/// a contiguous range of items; results land in a pre-sized buffer slot per
/// item, so the returned order (and any order-sensitive fold the caller
/// does) is independent of scheduling.
pub fn map_items_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(items.len(), || None);
    let mut slots: Vec<(&mut Option<R>, &mut T)> = results.iter_mut().zip(items).collect();
    // An item is a whole task (a client's round): a grain at least, so
    // every item may have a part of its own.
    for_each_part_mut(&mut slots, 1, GRAIN, |offset, part| {
        for (local, (slot, item)) in part.iter_mut().enumerate() {
            **slot = Some(f(offset + local, item));
        }
    });
    results
        .into_iter()
        .map(|r| match r {
            Some(r) => r,
            // Unreachable: every slot is written exactly once above, and a
            // worker panic propagates out of the scope before we get here.
            None => unreachable!("map_items_mut slot left unfilled"),
        })
        .collect()
}

/// Fixed reduction chunk length (elements). A constant, so the association
/// order of chunked reductions never depends on the thread count.
const REDUCE_CHUNK: usize = 4096;

/// Chunks a part folds side by side: four independent add chains hide the
/// latency of each one's adds.
const LOCKSTEP: usize = 4;

/// The value type of a chunked reduction.
trait Partial: Copy + Send + std::ops::Add<Output = Self> {
    /// The start of [`Iterator::sum`]'s fold, which every chunk reproduces.
    const NEG_ZERO: Self;
}

impl Partial for f32 {
    const NEG_ZERO: f32 = -0.0;
}

impl Partial for f64 {
    const NEG_ZERO: f64 = -0.0;
}

/// One chunk's fold: its terms added left to right from `-0.0`, the bits
/// `Iterator::sum` gives over them.
fn fold_chunk<A: Partial>(terms: impl Iterator<Item = A>) -> A {
    terms.fold(A::NEG_ZERO, |acc, t| acc + t)
}

/// A fixed-chunk reduction over `len` elements of `bytes` bytes each, whose
/// terms `terms(range)` yields as a pure function of the range. Inputs of
/// at most one chunk are that single fold; above that the per-chunk folds
/// are computed in parallel and combined in ascending chunk order.
///
/// A part folds its whole chunks [`LOCKSTEP`] at a time, one term of each
/// per step: every chunk still adds its own terms in ascending order, so
/// the bits are [`fold_chunk`]'s.
fn chunked_reduce<A, I, T>(len: usize, bytes: usize, terms: T) -> A
where
    A: Partial + for<'a> std::iter::Sum<&'a A>,
    I: Iterator<Item = A>,
    T: Fn(Range<usize>) -> I + Sync,
{
    if len <= REDUCE_CHUNK {
        return fold_chunk(terms(0..len));
    }
    let chunk = |c: usize| c * REDUCE_CHUNK..((c + 1) * REDUCE_CHUNK).min(len);
    let mut partials = vec![A::NEG_ZERO; len.div_ceil(REDUCE_CHUNK)];
    let chunk_bytes = REDUCE_CHUNK * bytes;
    for_each_part_mut(&mut partials, 1, chunk_bytes, |first_chunk, part| {
        for (g, group) in part.chunks_mut(LOCKSTEP).enumerate() {
            let first = first_chunk + g * LOCKSTEP;
            if group.len() == LOCKSTEP && chunk(first + LOCKSTEP - 1).len() == REDUCE_CHUNK {
                let [t0, t1, t2, t3] = std::array::from_fn(|lane| terms(chunk(first + lane)));
                let mut acc = [A::NEG_ZERO; LOCKSTEP];
                for (((x0, x1), x2), x3) in t0.zip(t1).zip(t2).zip(t3) {
                    acc = [acc[0] + x0, acc[1] + x1, acc[2] + x2, acc[3] + x3];
                }
                group.copy_from_slice(&acc);
            } else {
                for (c, slot) in (first..).zip(group.iter_mut()) {
                    *slot = fold_chunk(terms(chunk(c)));
                }
            }
        }
    });
    partials.iter().sum()
}

/// Sum of `data` with a fixed-chunk association order (see module docs).
///
/// For inputs of at most one chunk this is the plain left fold; above that,
/// per-chunk left folds are combined in ascending chunk order.
pub fn chunked_sum(data: &[f32]) -> f32 {
    chunked_reduce(data.len(), 4, |r| data[r].iter().copied())
}

/// Dot product of `a` and `b` (equal lengths) with fixed-chunk association
/// order.
pub fn chunked_dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "chunked_dot length mismatch");
    chunked_reduce(a.len(), 8, |r| {
        a[r.clone()].iter().zip(&b[r]).map(|(&x, &y)| x * y)
    })
}

/// Sum of squares of `data`, accumulated in `f64`, with fixed-chunk
/// association order. Backs [`crate::Tensor::norm_l2`].
pub fn chunked_sumsq_f64(data: &[f32]) -> f64 {
    chunked_reduce(data.len(), 4, |r| {
        data[r].iter().map(|&x| f64::from(x) * f64::from(x))
    })
}

/// [`chunked_sumsq_f64`] of the elementwise difference `a − b` (equal
/// lengths; each difference rounded to `f32` first), without materializing
/// it: the bits `chunked_sumsq_f64` gives on the subtracted buffer. Backs
/// [`crate::Tensor::diff_norm_l2`].
pub fn chunked_sumsq_diff_f64(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "chunked_sumsq_diff_f64 length mismatch");
    chunked_reduce(a.len(), 8, |r| {
        a[r.clone()].iter().zip(&b[r]).map(|(&x, &y)| {
            let d = f64::from(x - y);
            d * d
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the global pool width.
    static WIDTH_LOCK: Mutex<()> = Mutex::new(());

    fn with_width<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(n);
        let out = f();
        reset_threads();
        out
    }

    #[test]
    fn split_counts_is_balanced_and_complete() {
        assert_eq!(split_counts(10, 3), vec![4, 3, 3]);
        assert_eq!(split_counts(3, 3), vec![1, 1, 1]);
        assert_eq!(split_counts(2, 4), vec![1, 1, 0, 0]);
        for (granules, parts) in [(17, 4), (100, 7), (1, 1)] {
            assert_eq!(
                split_counts(granules, parts).iter().sum::<usize>(),
                granules
            );
        }
    }

    #[test]
    fn for_each_part_covers_every_element_once() {
        for width in [1, 2, 4, 9] {
            with_width(width, || {
                let mut data = vec![0u32; 103];
                for_each_part_mut(&mut data, 1, GRAIN, |offset, part| {
                    for (i, x) in part.iter_mut().enumerate() {
                        *x += (offset + i) as u32;
                    }
                });
                for (i, &x) in data.iter().enumerate() {
                    assert_eq!(x, i as u32, "element {i} written wrongly");
                }
            });
        }
    }

    #[test]
    fn granule_boundaries_are_respected() {
        with_width(3, || {
            let mut data = vec![0usize; 7 * 5];
            for_each_part_mut(&mut data, 5, GRAIN, |offset, part| {
                assert_eq!(offset % 5, 0, "part starts mid-granule");
                assert_eq!(part.len() % 5, 0, "part splits a granule");
                for x in part.iter_mut() {
                    *x = offset;
                }
            });
        });
    }

    #[test]
    fn a_region_takes_one_part_per_whole_grain_up_to_the_width() {
        // (width, granules, work per granule, parts): inline below two
        // grains, a part per whole grain above, at most the width and at
        // most the granule count.
        let cases = [
            (8, 1000, 0, 1),
            (8, 1000, (2 * GRAIN - 1) / 1000, 1),
            (8, 1, 2 * GRAIN - 1, 1),
            (8, 1000, 2 * GRAIN / 1000 + 1, 2),
            (8, 1000, 3 * GRAIN / 1000 + 1, 3),
            (3, 1000, GRAIN, 3),
            (3, usize::MAX, usize::MAX, 3),
            (8, 5, 100 * GRAIN, 5),
            (1, 1000, GRAIN, 1),
        ];
        for (width, granules, work, want) in cases {
            with_width(width, || {
                assert_eq!(parts(granules, work), want, "{granules} × {work}");
                if granules <= 1000 {
                    let calls = AtomicUsize::new(0);
                    for_each_part_mut(&mut vec![0u8; granules], 1, work, |_, _| {
                        calls.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(calls.into_inner(), want, "{granules} × {work}");
                }
            });
        }
    }

    #[test]
    fn nested_regions_run_inline() {
        with_width(4, || {
            let mut outer = vec![false; 4];
            for_each_part_mut(&mut outer, 1, GRAIN, |_, part| {
                assert!(in_parallel_region());
                // Work enough for four parts, yet one inline call.
                let calls = AtomicUsize::new(0);
                for_each_part_mut(&mut [0u8; 64], 1, GRAIN, |offset, inner| {
                    assert_eq!((offset, inner.len()), (0, 64));
                    calls.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(calls.into_inner(), 1);
                for x in part.iter_mut() {
                    *x = true;
                }
            });
            assert!(outer.iter().all(|&x| x));
        });
    }

    #[test]
    fn a_region_of_p_parts_records_p_tasks_and_runs_part_zero_on_the_caller() {
        with_width(4, || {
            let caller = std::thread::current().id();
            let mut ran_on = vec![None; 4];
            let before = crate::profile::snapshot();
            for_each_part_mut(&mut ran_on, 1, GRAIN, |_, part| {
                assert!(in_parallel_region());
                part[0] = Some(std::thread::current().id());
            });
            // Other tests fan out concurrently on the same global counters:
            // this region alone accounts for one region of four parts.
            let delta = crate::profile::snapshot().delta_since(&before);
            assert!(
                delta.pool_regions >= 1 && delta.pool_tasks >= 4,
                "{delta:?}"
            );
            assert_eq!(ran_on[0], Some(caller));
            assert!(ran_on[1..]
                .iter()
                .all(|id| id.is_some() && *id != Some(caller)));
            assert!(!in_parallel_region(), "the caller's mark outlived its part");
        });
    }

    #[test]
    fn spawn_worker_thread_runs_a_nested_region_inline() {
        with_width(4, || {
            let inline = spawn_worker(|| {
                assert!(in_parallel_region());
                let me = std::thread::current().id();
                let calls = Mutex::new(Vec::new());
                for_each_part_mut(&mut [0u8; 64], 1, GRAIN, |offset, part| {
                    let here = std::thread::current().id();
                    calls.lock().unwrap().push((offset, part.len(), here == me));
                });
                calls.into_inner().unwrap()
            })
            .join()
            .unwrap();
            assert_eq!(inline, vec![(0, 64, true)]);
        });
    }

    #[test]
    fn map_items_preserves_order() {
        for width in [1, 3, 8] {
            with_width(width, || {
                let mut items: Vec<usize> = (0..23).collect();
                let out = map_items_mut(&mut items, |i, item| {
                    assert_eq!(i, *item);
                    i * 10
                });
                assert_eq!(out, (0..23).map(|i| i * 10).collect::<Vec<_>>());
            });
        }
    }

    /// Asserts that a reduction over `len` elements of `bytes` bytes each
    /// fans out at width 2, so a width test of it partitions.
    fn assert_reduction_splits(len: usize, bytes: usize) {
        with_width(2, || {
            let chunks = len.div_ceil(REDUCE_CHUNK);
            assert_eq!(parts(chunks, REDUCE_CHUNK * bytes), 2, "len {len}");
        });
    }

    #[test]
    fn chunked_reductions_are_width_invariant() {
        let len = 300 * REDUCE_CHUNK + 5;
        assert_reduction_splits(len, 4);
        let data: Vec<f32> = (0..len)
            .map(|i| ((i * 37) % 101) as f32 * 0.37 - 18.0)
            .collect();
        let other: Vec<f32> = (0..len)
            .map(|i| ((i * 53) % 97) as f32 * 0.11 - 5.0)
            .collect();
        let (base_sum, base_dot, base_sq) = with_width(1, || {
            (
                chunked_sum(&data),
                chunked_dot(&data, &other),
                chunked_sumsq_f64(&data),
            )
        });
        for width in [2, 4, 7] {
            with_width(width, || {
                assert_eq!(chunked_sum(&data).to_bits(), base_sum.to_bits());
                assert_eq!(chunked_dot(&data, &other).to_bits(), base_dot.to_bits());
                assert_eq!(chunked_sumsq_f64(&data).to_bits(), base_sq.to_bits());
            });
        }
    }

    #[test]
    fn sumsq_of_a_difference_equals_sumsq_of_the_subtracted_buffer() {
        for len in [0usize, 1, 100, REDUCE_CHUNK, REDUCE_CHUNK + 1, 20_000] {
            let a: Vec<f32> = (0..len)
                .map(|i| ((i * 37) % 101) as f32 * 0.37 - 18.0)
                .collect();
            let b: Vec<f32> = (0..len)
                .map(|i| ((i * 53) % 97) as f32 * 0.11 - 5.0)
                .collect();
            let diff: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
            for width in [1, 2, 4] {
                with_width(width, || {
                    assert_eq!(
                        chunked_sumsq_diff_f64(&a, &b).to_bits(),
                        chunked_sumsq_f64(&diff).to_bits(),
                        "len {len} width {width}"
                    );
                });
            }
        }
    }

    #[test]
    fn lockstep_chunks_keep_each_chunks_serial_fold() {
        // 257 whole chunks and a ragged tail: lockstep groups, a leftover
        // whole chunk and the short last chunk, split across parts at
        // widths 2 and 4. Each chunk must be its plain `Iterator::sum`.
        let len = 257 * REDUCE_CHUNK + 17;
        assert_reduction_splits(len, 4);
        let a: Vec<f32> = (0..len)
            .map(|i| ((i * 37) % 101) as f32 * 0.37 - 18.0)
            .collect();
        let b: Vec<f32> = (0..len)
            .map(|i| ((i * 53) % 97) as f32 * 0.11 - 5.0)
            .collect();
        let per_chunk = |f: &dyn Fn(usize) -> f64| -> f64 {
            let sums: Vec<f64> = (0..len)
                .step_by(REDUCE_CHUNK)
                .map(|s| (s..(s + REDUCE_CHUNK).min(len)).map(f).sum::<f64>())
                .collect();
            sums.iter().sum()
        };
        let want_sq = per_chunk(&|i| f64::from(a[i]) * f64::from(a[i]));
        let want_diff = per_chunk(&|i| {
            let d = f64::from(a[i] - b[i]);
            d * d
        });
        let sums: Vec<f32> = a
            .chunks(REDUCE_CHUNK)
            .map(|c| c.iter().sum::<f32>())
            .collect();
        let want_sum: f32 = sums.iter().sum();
        let negative_zeros = vec![-0.0f32; len];
        for width in [1, 2, 4] {
            with_width(width, || {
                assert_eq!(chunked_sumsq_f64(&a).to_bits(), want_sq.to_bits());
                assert_eq!(
                    chunked_sumsq_diff_f64(&a, &b).to_bits(),
                    want_diff.to_bits()
                );
                assert_eq!(chunked_sum(&a).to_bits(), want_sum.to_bits());
                assert_eq!(chunked_sum(&negative_zeros).to_bits(), (-0.0f32).to_bits());
            });
        }
    }

    #[test]
    fn chunked_sum_short_input_matches_serial_fold() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        assert_eq!(chunked_sum(&data), data.iter().sum::<f32>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_width(2, || {
                let mut data = vec![0u8; 8];
                for_each_part_mut(&mut data, 1, GRAIN, |offset, _| {
                    assert!(offset < 4, "synthetic failure in a worker");
                });
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn callers_mark_is_restored_after_a_panic_in_its_own_part() {
        with_width(2, || {
            let result = std::panic::catch_unwind(|| {
                let mut data = vec![0u8; 8];
                for_each_part_mut(&mut data, 1, GRAIN, |offset, _| {
                    assert!(offset != 0, "synthetic failure in the caller's part");
                });
            });
            assert!(result.is_err());
            assert!(!in_parallel_region(), "an unwound region left its mark");
        });
        // A worker that opens a (then inline) region keeps its own mark.
        let still_marked = spawn_worker(|| {
            for_each_part_mut(&mut [0u8; 8], 1, GRAIN, |_, _| {});
            in_parallel_region()
        });
        assert!(still_marked.join().unwrap());
    }

    #[test]
    fn config_from_env_is_positive() {
        assert!(width_from_env() >= 1);
        with_width(0, || assert_eq!(threads(), 1));
    }
}
