//! Pooling layers: max pooling (VGG11, M18) and global average pooling
//! (ResNet20 head).
//!
//! Max pooling takes two-cell-wide windows eight at a time, one window per
//! lane, over a plane's flattened windows (so a 4×4 or 2×2 map fills the
//! lanes too), and caches each window's argmax as the winning cell's
//! offset within the window (`u8`); backward maps the offset back through
//! the window's origin.

use crate::{Layer, NnError, Result};
use dinar_tensor::Tensor;

/// Non-overlapping 2-D max pooling over `[n, c, h, w]` inputs.
///
/// Kernel and stride are equal (the configuration used by VGG-style
/// networks). Input height/width must be divisible by the kernel, unless
/// the layer was built with [`MaxPool2d::floor_mode`].
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    floor: bool,
    cached: Option<MaxPoolCache>,
}

#[derive(Debug)]
struct MaxPoolCache {
    input_shape: Vec<usize>,
    windows: Windows,
    /// Per output element, the offset of the input cell that won its window
    /// within the window, in scan order (`ky·kw + kx`).
    argmax: Vec<u8>,
}

impl MaxPoolCache {
    /// Routes each output gradient to the input cell that won its window:
    /// the window's origin (a per-row base plus `kw` per window) plus the
    /// offset of its winning cell.
    fn backward(&self, grad_output: &Tensor) -> Result<Tensor> {
        if grad_output.len() != self.argmax.len() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "max pooling produced {} outputs, got a gradient of {:?}",
                    self.argmax.len(),
                    grad_output.shape()
                ),
            });
        }
        let mut grad_in = Tensor::zeros(&self.input_shape);
        let gi = grad_in.as_mut_slice();
        let win = &self.windows;
        let mut cells = [0usize; 256];
        for (c, &cell) in cells.iter_mut().zip(&win.cells()) {
            *c = cell;
        }
        // A plane's window origins, in output order.
        let map = win.oh * win.ow;
        let origins: Vec<usize> = win
            .row_bases()
            .take(win.oh)
            .flat_map(|base| (0..win.ow).map(move |ox| base + ox * win.kw))
            .collect();
        if map > 0 {
            let planes = self
                .argmax
                .chunks_exact(map)
                .zip(grad_output.as_slice().chunks_exact(map));
            for ((args, grads), plane) in planes.zip(gi.chunks_exact_mut(win.h * win.w)) {
                // Windows do not overlap, so each cell is written at most once:
                // `0.0 + g` is the zeroed cell plus its gradient.
                for ((&origin, &arg), &g) in origins.iter().zip(args).zip(grads) {
                    plane[origin + cells[usize::from(arg)]] = 0.0 + g;
                }
            }
        }
        Ok(grad_in)
    }
}

/// Windows side by side in one pass of the max-pooling kernel, one per
/// lane (an 8-wide AVX2 register of `f32`).
const LANES: usize = 8;

/// The non-overlapping `kh × kw` windows of a batch of `[h, w]` planes: a
/// plane is `⌊h / kh⌋ × ⌊w / kw⌋` windows, and rows and columns past the
/// last whole window are never read.
#[derive(Debug, Clone, Copy)]
struct Windows {
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
}

impl Windows {
    /// The windows of `(h, w)` planes; an offset within a window must fit
    /// the `u8` argmax.
    fn new((h, w): (usize, usize), (kh, kw): (usize, usize)) -> Result<Self> {
        if kh * kw > 256 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "max pooling caches the argmax as a u8 window offset; a {kh}x{kw} window has {} cells",
                    kh * kw
                ),
            });
        }
        Ok(Windows {
            h,
            w,
            kh,
            kw,
            oh: h / kh,
            ow: w / kw,
        })
    }

    /// Offset of each window cell from the window's first cell, in scan
    /// order (row by row): the cell a `u8` argmax names.
    fn cells(&self) -> Vec<usize> {
        (0..self.kh)
            .flat_map(|ky| (0..self.kw).map(move |kx| ky * self.w + kx))
            .collect()
    }

    /// Input offset of the first cell of each output row's first window:
    /// output row `r` is window row `r % oh` of plane `r / oh`.
    fn row_bases(&self) -> impl Iterator<Item = usize> {
        let (plane, band, oh) = (self.h * self.w, self.kh * self.w, self.oh);
        std::iter::successors(Some((0, 0)), move |&(base, oy): &(usize, usize)| {
            Some(match oy + 1 < oh {
                true => (base + band, oy + 1),
                false => (base + plane - oy * band, 0),
            })
        })
        .map(|(base, _)| base)
    }
}

/// One step of the walk over a batch's windows, in output order: `at` is
/// the first window's output index, `x` the input offset of its first cell.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// [`LANES`] windows two cells wide: `ow` adjacent windows from each of
    /// `LANES / ow` output rows.
    Lanes { ow: usize, at: usize, x: usize },
    /// One window.
    One { at: usize, x: usize },
}

/// Walks the `count` windows of a batch, [`LANES`] at a time where they are
/// two cells wide (every pooling layer of the VGG models). A plane's
/// windows are flattened: when a row holds fewer than [`LANES`] windows and
/// the planes have no rows past their last window (so consecutive output
/// rows are `kh·w` apart), one step takes `LANES / ow` rows, and the 4×4
/// and 2×2 maps of a small CNN fill the lanes too; a longer row is taken
/// [`LANES`] windows at a time. Other windows, and those left over, are
/// one step each.
fn walk(win: &Windows, count: usize, mut visit: impl FnMut(Step)) {
    let (ow, kw, band) = (win.ow, win.kw, win.kh * win.w);
    if count == 0 {
        return;
    }
    if kw == 2 && ow < LANES && win.h == win.oh * win.kh && LANES.is_multiple_of(ow) {
        let per = LANES / ow;
        let whole = count / LANES * LANES;
        for (group, at) in (0..whole).step_by(LANES).enumerate() {
            visit(Step::Lanes {
                ow,
                at,
                x: group * per * band,
            });
        }
        for at in whole..count {
            visit(Step::One {
                at,
                x: (at / ow) * band + (at % ow) * kw,
            });
        }
        return;
    }
    let whole = if kw == 2 { ow / LANES * LANES } else { 0 };
    for (first, base) in (0..count).step_by(ow).zip(win.row_bases()) {
        for ox in (0..whole).step_by(LANES) {
            visit(Step::Lanes {
                ow: LANES,
                at: first + ox,
                x: base + ox * kw,
            });
        }
        for ox in whole..ow {
            visit(Step::One {
                at: first + ox,
                x: base + ox * kw,
            });
        }
    }
}

/// The maximum of each window of `x` and the offset of the cell it came
/// from within the window. Within a window the first maximum wins (`>` is
/// strict), and a NaN is only ever kept from the window's first cell.
///
/// Windows are taken as [`walk`] hands them out: [`LANES`] at a time, one
/// per lane, each window row one contiguous load split into its first and
/// second cells and each cell a compare-select per lane, or one at a time
/// in the same cell order.
fn max_pool(x: &[f32], win: &Windows) -> (Vec<f32>, Vec<u8>) {
    let mut out = vec![0.0f32; (x.len() / (win.h * win.w).max(1)) * win.oh * win.ow];
    let mut argmax = vec![0u8; out.len()];
    let cells = win.cells();
    walk(win, out.len(), |step| match step {
        Step::Lanes { ow, at, x: from } => {
            let (best, arg) = (&mut out[at..at + LANES], &mut argmax[at..at + LANES]);
            match (ow, win.kh) {
                (1, 2) => scan_pairs::<1, 2>(&x[from..], win, best, arg),
                (2, 2) => scan_pairs::<2, 2>(&x[from..], win, best, arg),
                (4, 2) => scan_pairs::<4, 2>(&x[from..], win, best, arg),
                (_, 2) => scan_pairs::<LANES, 2>(&x[from..], win, best, arg),
                (1, _) => scan_pairs::<1, 0>(&x[from..], win, best, arg),
                (2, _) => scan_pairs::<2, 0>(&x[from..], win, best, arg),
                (4, _) => scan_pairs::<4, 0>(&x[from..], win, best, arg),
                _ => scan_pairs::<LANES, 0>(&x[from..], win, best, arg),
            }
        }
        Step::One { at, x: from } => (out[at], argmax[at]) = scan(&x[from..], &cells),
    });
    (out, argmax)
}

/// [`LANES`] windows two cells wide, one per lane: `OW` adjacent windows
/// from each of `LANES / OW` output rows, the first starting at `x[0]` and
/// the rows `kh·w` apart. Each window row is read as `LANES` pairs and split
/// into its first and second cells. `KH` fixes the window height when it is
/// not 0 (two-row windows, the VGG case, unroll into straight-line code),
/// or `KH = 0` reads it from `win`.
fn scan_pairs<const OW: usize, const KH: usize>(
    x: &[f32],
    win: &Windows,
    best: &mut [f32],
    arg: &mut [u8],
) {
    let kh = if KH == 0 { win.kh } else { KH };
    let band = kh * win.w;
    // The offsets are selected in 32-bit lanes, the width of the compare's
    // mask, and narrowed once at the store.
    let (mut top, mut at) = ([0.0f32; LANES], [0u32; LANES]);
    for (ky, cell) in (0..kh).zip((0u32..).step_by(2)) {
        let mut pairs = [0.0f32; 2 * LANES];
        for (r, dst) in pairs.chunks_exact_mut(2 * OW).enumerate() {
            dst.copy_from_slice(&x[r * band + ky * win.w..][..2 * OW]);
        }
        let first: [f32; LANES] = std::array::from_fn(|l| pairs[2 * l]);
        let second: [f32; LANES] = std::array::from_fn(|l| pairs[2 * l + 1]);
        if ky == 0 {
            top = first;
        } else {
            take_greater(&mut top, &mut at, &first, cell);
        }
        take_greater(&mut top, &mut at, &second, cell + 1);
    }
    best.copy_from_slice(&top);
    for (a, &cell) in arg.iter_mut().zip(&at) {
        *a = cell as u8;
    }
}

/// Lane by lane, takes `v` and offset `cell` where `v` is strictly greater.
#[inline(always)]
fn take_greater(top: &mut [f32; LANES], at: &mut [u32; LANES], v: &[f32; LANES], cell: u32) {
    for ((t, a), &v) in top.iter_mut().zip(at.iter_mut()).zip(v) {
        let take = v > *t;
        *t = if take { v } else { *t };
        *a = if take { cell } else { *a };
    }
}

/// One window starting at `x[0]`, scanned cell by cell in `cells` order.
fn scan(x: &[f32], cells: &[usize]) -> (f32, u8) {
    let (mut top, mut at) = (x[0], 0u8);
    for (c, &cell) in (0u8..).zip(cells).skip(1) {
        let v = x[cell];
        let take = v > top;
        top = if take { v } else { top };
        at = if take { c } else { at };
    }
    (top, at)
}

impl MaxPool2d {
    /// Creates a max-pooling layer with the given kernel (= stride).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pooling kernel must be positive");
        MaxPool2d {
            kernel,
            floor: false,
            cached: None,
        }
    }

    /// A max-pooling layer that accepts any map at least one window tall
    /// and wide, and drops the rows and columns past its last whole window
    /// (an `h × w` map pools to `⌊h/k⌋ × ⌊w/k⌋`) — how VGG11 pools a 48×48
    /// image down to 1×1.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn floor_mode(kernel: usize) -> Self {
        MaxPool2d {
            floor: true,
            ..MaxPool2d::new(kernel)
        }
    }
}

/// Whether a pooling layer takes an input of `len` along a pooled axis:
/// a multiple of `kernel`, or in floor mode at least one window.
fn poolable(len: usize, kernel: usize, floor: bool) -> bool {
    if floor {
        len >= kernel
    } else {
        len.is_multiple_of(kernel)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        let k = self.kernel;
        let poolable = |len| poolable(len, k, self.floor);
        if shape.len() != 4 || !poolable(shape[2]) || !poolable(shape[3]) {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "maxpool2d(k={k}) requires [n, c, h, w] with h, w {}; got {shape:?}",
                    if self.floor {
                        "at least k"
                    } else {
                        "divisible by k"
                    }
                ),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let windows = Windows::new((h, w), (k, k))?;
        let (out, argmax) = max_pool(input.as_slice(), &windows);
        self.cached = Some(MaxPoolCache {
            input_shape: shape.to_vec(),
            windows,
            argmax,
        });
        Ok(Tensor::from_vec(out, &[n, c, h / k, w / k])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "maxpool2d" })?;
        cache.backward(grad_output)
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn clear_cache(&mut self) {
        self.cached = None;
    }
}

/// Non-overlapping 1-D max pooling over `[n, c, len]` inputs (M18). The
/// length must be divisible by the kernel, unless the layer was built with
/// [`MaxPool1d::floor_mode`].
#[derive(Debug)]
pub struct MaxPool1d {
    kernel: usize,
    floor: bool,
    cached: Option<MaxPoolCache>,
}

impl MaxPool1d {
    /// Creates a 1-D max-pooling layer with the given kernel (= stride).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pooling kernel must be positive");
        MaxPool1d {
            kernel,
            floor: false,
            cached: None,
        }
    }

    /// A 1-D max-pooling layer that accepts any length of at least one
    /// window and drops the samples past its last whole window — how M18
    /// pools a 16,000-sample waveform.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn floor_mode(kernel: usize) -> Self {
        MaxPool1d {
            floor: true,
            ..MaxPool1d::new(kernel)
        }
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        let k = self.kernel;
        if shape.len() != 3 || !poolable(shape[2], k, self.floor) {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "maxpool1d(k={k}) requires [n, c, len] with len {}; got {shape:?}",
                    if self.floor {
                        "at least k"
                    } else {
                        "divisible by k"
                    }
                ),
            });
        }
        let (n, c, l) = (shape[0], shape[1], shape[2]);
        let windows = Windows::new((1, l), (1, k))?;
        let (out, argmax) = max_pool(input.as_slice(), &windows);
        self.cached = Some(MaxPoolCache {
            input_shape: shape.to_vec(),
            windows,
            argmax,
        });
        Ok(Tensor::from_vec(out, &[n, c, l / self.kernel])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "maxpool1d" })?;
        cache.backward(grad_output)
    }

    fn name(&self) -> &'static str {
        "maxpool1d"
    }

    fn clear_cache(&mut self) {
        self.cached = None;
    }
}

/// Global average pooling: `[n, c, h, w]` → `[n, c]` or `[n, c, len]` → `[n, c]`.
///
/// Used as the ResNet20 and M18 heads before the final classifier.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() < 3 {
            return Err(NnError::InvalidConfig {
                reason: format!("global average pool requires [n, c, ...], got {shape:?}"),
            });
        }
        let (n, c) = (shape[0], shape[1]);
        let spatial: usize = shape[2..].iter().product();
        let x = input.as_slice();
        let mut out = vec![0.0f32; n * c];
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * spatial;
                out[i * c + ch] = x[base..base + spatial].iter().sum::<f32>() / spatial as f32;
            }
        }
        self.cached_shape = Some(shape.to_vec());
        Ok(Tensor::from_vec(out, &[n, c])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward {
                layer: "global_avg_pool",
            })?;
        let (n, c) = (shape[0], shape[1]);
        let spatial: usize = shape[2..].iter().product();
        let mut grad_in = Tensor::zeros(shape);
        let gi = grad_in.as_mut_slice();
        let g = grad_output.as_slice();
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * spatial;
                let v = g[i * c + ch] / spatial as f32;
                for s in 0..spatial {
                    gi[base + s] = v;
                }
            }
        }
        Ok(grad_in)
    }

    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn clear_cache(&mut self) {
        self.cached_shape = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool2d_picks_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 1.0, 1.0, 1.0, //
                1.0, 1.0, 1.0, 2.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 9.0, 2.0]);
    }

    #[test]
    fn maxpool2d_backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x, true).unwrap();
        let gx = pool
            .backward(&Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 0.0, 0.0, 10.0]);
    }

    /// The loop [`max_pool`] replaced: a flat index per window element, a
    /// branch per compare, starting from the window's first cell.
    fn replaced_max_pool(
        x: &[f32],
        planes: usize,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
    ) -> (Vec<f32>, Vec<u32>) {
        let (oh, ow) = (h / kh, w / kw);
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for plane in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = (plane * h + oy * kh) * w + ox * kw;
                    let mut best = x[best_idx];
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let idx = (plane * h + oy * kh + ky) * w + ox * kw + kx;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx as u32);
                }
            }
        }
        (out, argmax)
    }

    #[test]
    fn max_pool_matches_the_replaced_loop_on_ties_and_nans() {
        let mut rng = dinar_tensor::Rng::seed_from(6);
        // Rows of 1, 2, 4 and 8 windows take the flattened lanes, 12 and 16
        // whole lanes plus a scalar tail; 3×3 windows, 1-D windows, and
        // the last four leave rows, columns or samples past the last whole
        // window, which floor mode drops (and which take the per-row path).
        let cases = [
            (6, 8, 12, 2, 2),
            (64, 2, 2, 2, 2),
            (9, 4, 4, 2, 2),
            (5, 8, 8, 2, 2),
            (3, 16, 16, 2, 2),
            (2, 4, 24, 2, 2),
            (3, 2, 34, 2, 2),
            (4, 9, 6, 3, 3),
            (3, 6, 27, 3, 3),
            (7, 3, 3, 3, 3),
            (5, 1, 20, 1, 4),
            (4, 1, 64, 1, 4),
            (3, 4, 4, 4, 4),
            (4, 3, 3, 2, 2),
            (2, 7, 10, 3, 4),
            (5, 1, 22, 1, 4),
            (3, 5, 18, 2, 2),
            // Two-cell windows of other heights: one row (`MaxPool1d`) at
            // every lane grouping, and three rows.
            (5, 1, 32, 1, 2),
            (6, 1, 8, 1, 2),
            (9, 1, 2, 1, 2),
            (3, 6, 4, 3, 2),
        ];
        for (planes, h, w, kh, kw) in cases {
            // Few distinct levels, so most windows hold a tie; NaNs land in
            // first and non-first window cells alike.
            let x = rng.randn(&[planes * h * w]);
            let mut x: Vec<f32> = x.as_slice().iter().map(|v| (v * 2.0).round()).collect();
            for i in (0..x.len()).step_by(7) {
                x[i] = f32::NAN;
            }
            let (want, want_arg) = replaced_max_pool(&x, planes, (h, w), (kh, kw));
            let windows = Windows::new((h, w), (kh, kw)).unwrap();
            let (got, got_arg) = max_pool(&x, &windows);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let case = format!("{planes}x{h}x{w} k={kh}x{kw}");
            assert_eq!(bits(&got), bits(&want), "{case}");
            // Each offset names the cell the replaced loop's flat index did.
            let cells = windows.cells();
            let (ow, oh) = (w / kw, h / kh);
            let flat: Vec<u32> = got_arg
                .chunks(ow)
                .zip(windows.row_bases())
                .flat_map(|(args, base)| {
                    let cells = &cells;
                    args.iter()
                        .enumerate()
                        .map(move |(ox, &a)| (base + ox * kw + cells[usize::from(a)]) as u32)
                })
                .collect();
            assert_eq!(flat, want_arg, "{case}");
            // Backward routes every gradient to the cell the u32 loop did.
            let grads: Vec<f32> = (0..want.len()).map(|i| i as f32 + 1.0).collect();
            let cache = MaxPoolCache {
                input_shape: vec![planes, h, w],
                windows,
                argmax: got_arg,
            };
            let routed = cache
                .backward(&Tensor::from_vec(grads.clone(), &[planes, oh, ow]).unwrap())
                .unwrap();
            let mut want_routed = vec![0.0f32; planes * h * w];
            for (&idx, &g) in want_arg.iter().zip(&grads) {
                want_routed[idx as usize] += g;
            }
            assert_eq!(bits(routed.as_slice()), bits(&want_routed), "{case}");
        }
    }

    #[test]
    fn windows_of_more_than_256_cells_are_rejected() {
        assert!(Windows::new((17, 17), (17, 17)).is_err());
        assert!(Windows::new((16, 16), (16, 16)).is_ok());
        assert!(MaxPool2d::new(17)
            .forward(&Tensor::zeros(&[1, 1, 17, 17]), true)
            .is_err());
    }

    #[test]
    fn maxpool_tie_goes_to_the_first_maximum_and_backward_follows_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                3.0, 3.0, 0.0, 5.0, //
                3.0, 1.0, 5.0, 5.0, //
                -1.0, -2.0, 7.0, 7.0, //
                -1.0, -1.0, 2.0, 7.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 5.0, -1.0, 7.0]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let gx = pool.backward(&g).unwrap();
        let mut want = [0.0; 16];
        (want[0], want[3], want[8], want[10]) = (1.0, 2.0, 3.0, 4.0);
        assert_eq!(gx.as_slice(), &want);

        let mut pool = MaxPool1d::new(3);
        let x = Tensor::from_vec(vec![1.0, 4.0, 4.0, 2.0, 2.0, 2.0], &[1, 1, 6]).unwrap();
        assert_eq!(pool.forward(&x, true).unwrap().as_slice(), &[4.0, 2.0]);
        let gx = pool
            .backward(&Tensor::from_vec(vec![5.0, 6.0], &[1, 1, 2]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 5.0, 0.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool2d_rejects_indivisible_input() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 3, 4]);
        assert!(pool.forward(&x, true).is_err());
    }

    #[test]
    fn floor_mode_pools_whole_windows_and_leaves_the_remainder_ungraded() {
        let mut pool = MaxPool2d::floor_mode(2);
        let x = Tensor::from_vec((0..15).map(|v| v as f32).collect(), &[1, 1, 3, 5]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0]);
        let gx = pool
            .backward(&Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 2]).unwrap())
            .unwrap();
        let mut want = [0.0; 15];
        (want[6], want[8]) = (1.0, 2.0);
        assert_eq!(gx.as_slice(), &want);
        assert!(
            pool.forward(&Tensor::zeros(&[1, 1, 1, 4]), true).is_err(),
            "no whole window"
        );

        let mut pool = MaxPool1d::floor_mode(4);
        let x = Tensor::from_vec((0..10).map(|v| v as f32).collect(), &[1, 1, 10]).unwrap();
        assert_eq!(pool.forward(&x, true).unwrap().as_slice(), &[3.0, 7.0]);
        assert!(
            MaxPool1d::new(4).forward(&x, true).is_err(),
            "strict mode still rejects"
        );
    }

    #[test]
    fn maxpool1d_basic() {
        let mut pool = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 4]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 3.0]);
        let gx = pool
            .backward(&Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 2]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_averages_and_distributes() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1]);
        assert_eq!(y.as_slice(), &[4.0]);
        let gx = pool
            .backward(&Tensor::from_vec(vec![8.0], &[1, 1]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_works_on_1d() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[2, 1, 2]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 1]);
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }
}
