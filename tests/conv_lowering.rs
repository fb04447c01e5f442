//! The conv lowering contract, pinned against the formulation it replaced.
//!
//! `Conv2d`/`Conv1d` lower through the patch-major matrix `[patch, n·oh·ow]`
//! (`W.matmul(cols)`, block swaps between `[oc, n, map]` and `[n, oc, map]`,
//! `col2im` walking the taps last to first). Before that they lowered through
//! the row-major matrix `[n·oh·ow, patch]`: a branchy per-element im2col,
//! `cols.matmul_t(W)` plus a row-broadcast bias, per-element NHWC⇄NCHW
//! transposes, `g_rowsᵀ·cols`, `sum_rows`, `g_rows·W` and a col2im that
//! visited output positions in ascending order. Every output element of
//! either formulation is the same serial ascending `mul_add` (or `+`) chain
//! over the same operands, so the two must agree **bit for bit**.
//!
//! This file keeps the old formulation as a test-only reference and compares
//! `y`, `dW`, `db` and `dX` over a grid of geometries at pool widths 1/2/4.

use dinar_nn::conv::{Conv1d, Conv2d};
use dinar_nn::Layer;
use dinar_tensor::{par, Rng, Tensor};
use std::sync::Mutex;

/// Serializes mutations of the process-global pool width across tests.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// One convolution as the reference sees it. A 1-D convolution is the 2-D
/// one over height-1 images with a height-1 kernel and no vertical padding.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: usize,
    c: usize,
    oc: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
}

impl Case {
    /// `(oh, ow)`, or `None` where the kernel does not fit the padded input.
    fn output(&self) -> Option<(usize, usize)> {
        let (ph, pw) = (self.h + 2 * self.pad_h, self.w + 2 * self.pad_w);
        (self.kh <= ph && self.kw <= pw).then(|| {
            (
                (ph - self.kh) / self.stride + 1,
                (pw - self.kw) / self.stride + 1,
            )
        })
    }

    fn patch(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Input coordinate of tap `k` at output `o`, if inside `0..len`.
    fn tap(o: usize, stride: usize, k: usize, pad: usize, len: usize) -> Option<usize> {
        let i = (o * stride + k) as isize - pad as isize;
        (i >= 0 && i < len as isize).then_some(i as usize)
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// The replaced im2col: one row per output position, two signed compares per
/// element.
fn reference_im2col(x: &[f32], case: &Case, oh: usize, ow: usize) -> Tensor {
    let Case {
        n,
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad_h,
        pad_w,
        ..
    } = *case;
    let patch = case.patch();
    let mut out = vec![0.0f32; n * oh * ow * patch];
    for (r, row) in out.chunks_exact_mut(patch).enumerate() {
        let (i, oy, ox) = (r / (oh * ow), r % (oh * ow) / ow, r % ow);
        for ch in 0..c {
            for ky in 0..kh {
                let Some(iy) = Case::tap(oy, stride, ky, pad_h, h) else {
                    continue;
                };
                for kx in 0..kw {
                    if let Some(ix) = Case::tap(ox, stride, kx, pad_w, w) {
                        row[(ch * kh + ky) * kw + kx] = x[((i * c + ch) * h + iy) * w + ix];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n * oh * ow, patch]).expect("sized by construction")
}

/// The replaced col2im: output positions outermost, in ascending order.
fn reference_col2im(g: &[f32], case: &Case, oh: usize, ow: usize) -> Vec<f32> {
    let Case {
        n,
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad_h,
        pad_w,
        ..
    } = *case;
    let patch = case.patch();
    let mut out = vec![0.0f32; n * c * h * w];
    for i in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((i * oh + oy) * ow + ox) * patch;
                for ch in 0..c {
                    for ky in 0..kh {
                        let Some(iy) = Case::tap(oy, stride, ky, pad_h, h) else {
                            continue;
                        };
                        for kx in 0..kw {
                            if let Some(ix) = Case::tap(ox, stride, kx, pad_w, w) {
                                out[((i * c + ch) * h + iy) * w + ix] +=
                                    g[row + (ch * kh + ky) * kw + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// `[n·map, oc]` rows → `[n, oc, map]`, one element at a time.
fn rows_to_planes(rows: &[f32], n: usize, oc: usize, map: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * oc * map];
    for i in 0..n {
        for pos in 0..map {
            for o in 0..oc {
                out[(i * oc + o) * map + pos] = rows[(i * map + pos) * oc + o];
            }
        }
    }
    out
}

/// Inverse of [`rows_to_planes`].
fn planes_to_rows(planes: &[f32], n: usize, oc: usize, map: usize) -> Tensor {
    let mut out = vec![0.0f32; n * map * oc];
    for i in 0..n {
        for pos in 0..map {
            for o in 0..oc {
                out[(i * map + pos) * oc + o] = planes[(i * oc + o) * map + pos];
            }
        }
    }
    Tensor::from_vec(out, &[n * map, oc]).expect("sized by construction")
}

/// `[y, dW, db, dX]` bit patterns.
type Outcome = [Vec<u32>; 4];

/// One forward and backward pass in the replaced row-major formulation, with
/// the gradients accumulated into zeroed buffers as the layers do.
fn reference_pass(
    case: &Case,
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    grad: &Tensor,
) -> Outcome {
    let (oh, ow) = case.output().expect("valid geometry");
    let (n, oc, map) = (case.n, case.oc, oh * ow);
    let cols = reference_im2col(x.as_slice(), case, oh, ow);
    let rows = cols
        .matmul_t(weight)
        .and_then(|rows| rows.add_row_broadcast(bias))
        .expect("forward product");
    let y = rows_to_planes(rows.as_slice(), n, oc, map);

    let g_rows = planes_to_rows(grad.as_slice(), n, oc, map);
    let mut dw = Tensor::zeros(weight.shape());
    dw.add_assign(&g_rows.t_matmul(&cols).expect("dW product"))
        .expect("dW shape");
    let mut db = Tensor::zeros(bias.shape());
    db.add_assign(&g_rows.sum_rows().expect("db sums"))
        .expect("db shape");
    let g_cols = g_rows.matmul(weight).expect("dX product");
    let dx = reference_col2im(g_cols.as_slice(), case, oh, ow);
    [
        bits(&y),
        bits(dw.as_slice()),
        bits(db.as_slice()),
        bits(&dx),
    ]
}

/// The same pass through a layer holding the same parameters.
fn layer_pass(
    layer: &mut dyn Layer,
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    grad: &Tensor,
) -> Outcome {
    let mut params = layer.params_mut();
    *params[0] = weight.clone();
    *params[1] = bias.clone();
    let y = layer.forward(x, true).expect("forward");
    assert_eq!(y.shape(), grad.shape(), "output shape");
    let dx = layer.backward(grad).expect("backward");
    assert_eq!(dx.shape(), x.shape(), "input gradient shape");
    let grads = layer.grads();
    [
        bits(y.as_slice()),
        bits(grads[0].as_slice()),
        bits(grads[1].as_slice()),
        bits(dx.as_slice()),
    ]
}

/// Runs `case` through the reference once and through `build()`'s layer at
/// every pool width, and demands identical bits.
fn check(
    case: &Case,
    input_shape: &[usize],
    output_shape: &[usize],
    build: impl Fn(&mut Rng) -> Box<dyn Layer>,
) {
    let mut rng =
        Rng::seed_from(0xC0DE ^ (case.n * 131 + case.h * 17 + case.kw * 5 + case.stride) as u64);
    let x = rng.randn(input_shape);
    let weight = rng.randn(&[case.oc, case.patch()]);
    let bias = rng.randn(&[case.oc]);
    let grad = rng.randn(output_shape);
    let want = reference_pass(case, &x, &weight, &bias, &grad);
    for width in [1, 2, 4] {
        par::set_threads(width);
        let got = layer_pass(build(&mut rng).as_mut(), &x, &weight, &bias, &grad);
        for (name, (got, want)) in ["y", "dW", "db", "dX"].iter().zip(got.iter().zip(&want)) {
            assert!(
                got == want,
                "{name} left the reference at {width} threads: {case:?}"
            );
        }
    }
}

#[test]
fn conv2d_matches_the_row_major_formulation_bit_for_bit() {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut checked = 0;
    // Non-square, the two smallest maps, and a pooled VGG-sized one.
    for (case_no, (h, w)) in [(7, 9), (1, 1), (2, 2), (8, 8)].into_iter().enumerate() {
        for kernel in [1, 3, 5] {
            for stride in [1, 2, 3] {
                for padding in [0, 1, 2] {
                    // Batch 64 clears the fan-out threshold of the lowering
                    // kernels, so widths 2 and 4 do partition.
                    let n = [1, 5, 64][(case_no + kernel + stride + padding) % 3];
                    let case = Case {
                        n,
                        c: 3,
                        oc: 5,
                        h,
                        w,
                        kh: kernel,
                        kw: kernel,
                        stride,
                        pad_h: padding,
                        pad_w: padding,
                    };
                    let Some((oh, ow)) = case.output() else {
                        continue;
                    };
                    check(&case, &[n, 3, h, w], &[n, 5, oh, ow], |rng| {
                        Box::new(Conv2d::new(3, 5, kernel, stride, padding, rng))
                    });
                    checked += 1;
                }
            }
        }
    }
    par::reset_threads();
    assert!(checked >= 80, "only {checked} valid geometries");
}

#[test]
fn conv1d_matches_the_row_major_formulation_bit_for_bit() {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut checked = 0;
    for (case_no, len) in [16, 1, 2, 9, 400].into_iter().enumerate() {
        for kernel in [1, 3, 5] {
            for stride in [1, 2, 3] {
                for padding in [0, 1, 2] {
                    let n = [1, 5, 64][(case_no + kernel + stride + padding) % 3];
                    let case = Case {
                        n,
                        c: 2,
                        oc: 6,
                        h: 1,
                        w: len,
                        kh: 1,
                        kw: kernel,
                        stride,
                        pad_h: 0,
                        pad_w: padding,
                    };
                    let Some((_, ol)) = case.output() else {
                        continue;
                    };
                    check(&case, &[n, 2, len], &[n, 6, ol], |rng| {
                        Box::new(Conv1d::new(2, 6, kernel, stride, padding, rng))
                    });
                    checked += 1;
                }
            }
        }
    }
    par::reset_threads();
    assert!(checked >= 100, "only {checked} valid geometries");
}

/// Geometries that reach every blocking edge of the packed GEMM through the
/// gathered operand: a patch longer than one 256-step reduction block
/// (`c = 32`, k = 3 is `vgg11_mini`'s last conv), `oc` above one 16-wide
/// panel and not a multiple of the 4-row quad, and position counts that are
/// multiples of neither 16 nor 256.
#[test]
fn conv2d_wide_patches_and_ragged_tiles_match_bit_for_bit() {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // (n, c, oc, h, w, kernel, stride, padding)
    let cases = [
        (64, 32, 32, 1, 1, 3, 1, 1),
        (3, 32, 21, 5, 5, 3, 1, 1),
        (13, 32, 18, 5, 5, 3, 1, 1),
        (7, 30, 17, 6, 4, 3, 2, 1),
        (5, 29, 23, 7, 9, 5, 1, 2),
    ];
    for (n, c, oc, h, w, kernel, stride, padding) in cases {
        let case = Case {
            n,
            c,
            oc,
            h,
            w,
            kh: kernel,
            kw: kernel,
            stride,
            pad_h: padding,
            pad_w: padding,
        };
        let (oh, ow) = case.output().expect("valid geometry");
        check(&case, &[n, c, h, w], &[n, oc, oh, ow], |rng| {
            Box::new(Conv2d::new(c, oc, kernel, stride, padding, rng))
        });
    }
    par::reset_threads();
}

/// The 1-D counterpart of [`conv2d_wide_patches_and_ragged_tiles_match_bit_for_bit`].
#[test]
fn conv1d_wide_patches_and_ragged_tiles_match_bit_for_bit() {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // (n, c, oc, len, kernel, stride, padding)
    let cases = [
        (3, 32, 21, 50, 9, 1, 4),
        (64, 32, 18, 4, 9, 1, 4),
        (5, 64, 17, 37, 5, 2, 2),
        (11, 40, 25, 23, 7, 3, 0),
    ];
    for (n, c, oc, len, kernel, stride, padding) in cases {
        let case = Case {
            n,
            c,
            oc,
            h: 1,
            w: len,
            kh: 1,
            kw: kernel,
            stride,
            pad_h: 0,
            pad_w: padding,
        };
        let (_, ol) = case.output().expect("valid geometry");
        check(&case, &[n, c, len], &[n, oc, ol], |rng| {
            Box::new(Conv1d::new(c, oc, kernel, stride, padding, rng))
        });
    }
    par::reset_threads();
}
