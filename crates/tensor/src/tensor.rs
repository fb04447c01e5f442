use crate::kernels::{gemm_row_block, indicator_form, Operand, View};
use crate::{alloc, cast, par, profile, sanitize, Result, TensorError};
use std::sync::Arc;

/// Bytes of one element: elementwise regions declare their work to
/// [`par::parts`] in bytes read plus bytes written.
pub(crate) const F32: usize = std::mem::size_of::<f32>();

/// The one driver behind every product: `A · B` (`a` is `m × k`, `b` is
/// `k × n`) partitioned over output rows on the pool. Operands are
/// shape-checked and finite-checked by the caller.
pub(crate) fn gemm(
    op: &'static str,
    m: usize,
    k: usize,
    n: usize,
    a: Operand,
    b: Operand,
) -> Tensor {
    let mut out = Tensor::zeros(&[m, n]);
    gemm_onto(op, &mut out, k, a, b, false);
    out
}

/// [`gemm`] into an existing `m × n` output: `out = A · B`, or with
/// `accumulate` `out += A · B`, each element's chain resumed from the value
/// `out` holds (a chain resumed from `+0.0` is the plain chain, bit for bit).
/// A 0/1 `A` takes the indicator form, bit for bit the same product (see
/// the indicator lemma in [`crate::kernels`]).
fn gemm_onto(
    op: &'static str,
    out: &mut Tensor,
    k: usize,
    a: Operand,
    b: Operand,
    accumulate: bool,
) {
    let (m, n) = (out.shape[0], out.shape[1]);
    profile::record_matmul(m, k, n);
    if m > 0 && n > 0 {
        let resumed = accumulate.then(|| out.as_slice());
        let indicator = indicator_form(a, b, (m, k, n), resumed);
        par::for_each_part_mut(out.data_mut(), n, k * n, |offset, rows| match &indicator {
            Some(indicator) => indicator.rows(rows, offset / n, k, n, accumulate),
            None => gemm_row_block(rows, offset / n, a, b, k, n, accumulate),
        });
    }
    sanitize::check_finite(op, "output", out);
}

/// Reference-counted storage behind a [`Tensor`]: the copy-on-write unit.
///
/// Since the storage/backend split this is the `f32` instantiation of the
/// dtype-generic [`storage::Buffer`](crate::storage::Buffer), which owns the
/// flat element vector and is the single place where the
/// [`alloc`](crate::alloc) ledgers see tensor memory: construction records
/// the allocation, dropping the last `Arc` records the deallocation (on the
/// dropping thread, preserving the cross-thread two-ledger semantics), and
/// `Clone` — reached only through `Arc::make_mut` when a *shared* buffer is
/// written — records the allocation of the materialized private copy plus a
/// [`profile::record_buffer_copy`] tick for the copy-traffic counters.
type Buf = crate::storage::Buffer<f32>;

/// A dense, contiguous, row-major `f32` tensor with copy-on-write storage.
///
/// `Tensor` is the single numeric container used across the DINAR
/// reproduction: model parameters, gradients, activations, dataset features
/// and defense buffers are all tensors. Storage is a shared, immutable,
/// `Arc`-backed buffer: cloning a tensor (and hence a `ModelParams` snapshot
/// hopping through the FL protocol) is an O(1) refcount bump, and the first
/// in-place write of a shared buffer materializes a private copy
/// (`Arc::make_mut`). Reads never copy; writers never alias.
///
/// Buffer construction and COW materialization register their sizes with the
/// [`alloc`](crate::alloc) accounting module so that defense memory overheads
/// (Table 3 of the paper) can be measured, and with the
/// [`profile`](crate::profile) copy counters that feed the `bench_params`
/// artifact.
///
/// # Example
///
/// ```
/// use dinar_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(x.shape(), &[2, 3]);
/// assert_eq!(x.sum(), 21.0);
/// # Ok::<(), dinar_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct Tensor {
    buf: Arc<Buf>,
    shape: Vec<usize>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from an owned buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the product of `shape`
    /// does not equal `data.len()`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: data.len(),
            });
        }
        Ok(Tensor {
            buf: Arc::new(Buf::new(data)),
            shape: shape.to_vec(),
        })
    }

    /// Infallible constructor for call sites where `data.len()` equals the
    /// product of `shape` by construction (fills, generators, element-wise
    /// maps). Routes through the same [`Buf`] accounting as
    /// [`Tensor::from_vec`]; the invariant is checked in debug builds only.
    fn from_parts(data: Vec<f32>, shape: Vec<usize>) -> Self {
        debug_assert_eq!(shape.iter().product::<usize>(), data.len());
        Tensor {
            buf: Arc::new(Buf::new(data)),
            shape,
        }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_parts(data.to_vec(), vec![data.len()])
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor::from_parts(vec![value; len], shape.to_vec())
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor with the same shape as `other`, filled with zeros.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor::zeros(other.shape())
    }

    /// Zeroes the tensor without ever copying its old contents: writes in
    /// place when the buffer is uniquely owned, and installs a fresh zero
    /// buffer when it is shared (the old data is about to be discarded, so a
    /// copy-on-write materialization would be wasted work — and would count
    /// as a buffer copy it doesn't deserve).
    pub fn zero_fill(&mut self) {
        match Arc::get_mut(&mut self.buf) {
            Some(buf) => buf.data.fill(0.0),
            None => *self = Tensor::zeros(&self.shape),
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let d = t.data_mut();
        for i in 0..n {
            d[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let len = shape.iter().product();
        let data = (0..len).map(&mut f).collect();
        Tensor::from_parts(data, shape.to_vec())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.buf.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.buf.data.is_empty()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf.data
    }

    /// Mutable access to the buffer: the single COW mutation point. A
    /// uniquely-held buffer is handed out as-is; a shared one is first
    /// materialized into a private copy (`Buf::clone` records the
    /// allocation).
    fn data_mut(&mut self) -> &mut Vec<f32> {
        &mut Arc::make_mut(&mut self.buf).data
    }

    /// Mutable view of the underlying row-major buffer (copies first if the
    /// buffer is shared with another tensor).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data_mut()
    }

    /// Mutable view of a buffer the caller overwrites in full before it
    /// reads any of it: a uniquely-held buffer is handed out as-is, a
    /// shared one is swapped for a fresh zero buffer rather than copied
    /// (its old contents are about to be discarded, as in
    /// [`Tensor::zero_fill`]).
    pub fn as_overwrite_slice(&mut self) -> &mut [f32] {
        if Arc::get_mut(&mut self.buf).is_none() {
            *self = Tensor::zeros(&self.shape);
        }
        self.data_mut()
    }

    /// Consumes the tensor, returning the underlying buffer. A
    /// uniquely-held buffer moves out (and leaves the alloc ledgers, since
    /// the caller now owns untracked memory); a shared one is copied.
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.buf) {
            Ok(mut buf) => {
                // Take the vec so `Buf::drop` records a zero-byte dealloc;
                // account for the real size here.
                alloc::record_dealloc((buf.data.len() * 4) as u64);
                std::mem::take(&mut buf.data)
            }
            Err(shared) => {
                profile::record_buffer_copy((shared.data.len() * 4) as u64);
                shared.data.clone()
            }
        }
    }

    /// Number of rows of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank-2.
    pub fn nrows(&self) -> Result<usize> {
        self.expect_matrix("nrows").map(|(r, _)| r)
    }

    /// Number of columns of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank-2.
    pub fn ncols(&self) -> Result<usize> {
        self.expect_matrix("ncols").map(|(_, c)| c)
    }

    fn expect_matrix(&self, op: &'static str) -> Result<(usize, usize)> {
        match self.shape.as_slice() {
            [r, c] => Ok((*r, *c)),
            _ => Err(TensorError::NotAMatrix {
                shape: self.shape.clone(),
                op,
            }),
        }
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `index` has the wrong rank
    /// or any coordinate exceeds its dimension.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.buf.data[self.flat_index(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `index` is invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.flat_index(index)?;
        self.data_mut()[flat] = value;
        Ok(())
    }

    fn flat_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() || index.iter().zip(&self.shape).any(|(i, d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        let mut flat = 0;
        for (i, d) in index.iter().zip(&self.shape) {
            flat = flat * d + i;
        }
        Ok(flat)
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor sharing this tensor's buffer under a new shape
    /// (O(1): no elements are copied; a later write to either tensor
    /// materializes its own buffer).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        if shape.iter().product::<usize>() != self.buf.data.len() {
            return Err(TensorError::InvalidReshape {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        profile::record_buffer_share();
        Ok(Tensor {
            buf: Arc::clone(&self.buf),
            shape: shape.to_vec(),
        })
    }

    /// Flattens to rank 1 (O(1): shares the buffer).
    pub fn flatten(&self) -> Tensor {
        profile::record_buffer_share();
        Tensor {
            buf: Arc::clone(&self.buf),
            shape: vec![self.buf.data.len()],
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank-2.
    pub fn transpose(&self) -> Result<Tensor> {
        let (r, c) = self.expect_matrix("transpose")?;
        let mut out = Tensor::zeros(&[c, r]);
        let src = self.buf.data.as_slice();
        let dst = out.data_mut();
        for i in 0..r {
            for j in 0..c {
                dst[j * r + i] = src[i * c + j];
            }
        }
        Ok(out)
    }

    /// Copies rows `[start, end)` of a rank-2 tensor into a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] if the range is invalid.
    pub fn rows(&self, start: usize, end: usize) -> Result<Tensor> {
        let (r, c) = self.expect_matrix("rows")?;
        if start > end || end > r {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![start, end],
                shape: self.shape.clone(),
            });
        }
        Tensor::from_vec(
            self.buf.data[start * c..end * c].to_vec(),
            &[end - start, c],
        )
    }

    /// Copies a single row of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::rows`].
    pub fn row(&self, i: usize) -> Result<Tensor> {
        let r = self.rows(i, i + 1)?;
        Ok(r.flatten())
    }

    /// Gathers the given rows of a rank-2 tensor into a new matrix, in order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] if any row index is invalid.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor> {
        let (r, c) = self.expect_matrix("gather_rows")?;
        let mut data = Vec::with_capacity(indices.len() * c);
        for &i in indices {
            if i >= r {
                return Err(TensorError::IndexOutOfBounds {
                    index: vec![i],
                    shape: self.shape.clone(),
                });
            }
            data.extend_from_slice(&self.buf.data[i * c..(i + 1) * c]);
        }
        Tensor::from_vec(data, &[indices.len(), c])
    }

    /// Vertically stacks rank-2 tensors with equal column counts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty input list,
    /// [`TensorError::NotAMatrix`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] on differing column counts.
    pub fn vstack(tensors: &[&Tensor]) -> Result<Tensor> {
        let first = tensors.first().ok_or(TensorError::Empty { op: "vstack" })?;
        let (_, c) = first.expect_matrix("vstack")?;
        let mut rows = 0;
        let mut data = Vec::new();
        for t in tensors {
            let (r, tc) = t.expect_matrix("vstack")?;
            if tc != c {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.clone(),
                    rhs: t.shape.clone(),
                    op: "vstack",
                });
            }
            rows += r;
            data.extend_from_slice(&t.buf.data);
        }
        Tensor::from_vec(data, &[rows, c])
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    fn zip_check(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op,
            });
        }
        Ok(())
    }

    /// Parallel elementwise combine used by the fixed arithmetic ops.
    /// Per-element results are independent, so partitioning cannot change
    /// them; `f` is a generic closure, so each op is inlined into the loop
    /// rather than called through a pointer per element.
    fn binary_elementwise(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<Tensor> {
        self.zip_check(other, op)?;
        let mut out = Tensor::zeros(&self.shape);
        let a = self.buf.data.as_slice();
        let b = other.buf.data.as_slice();
        par::for_each_part_mut(out.data_mut(), 1, 3 * F32, |offset, part| {
            let a_part = &a[offset..offset + part.len()];
            let b_part = &b[offset..offset + part.len()];
            for ((o, &x), &y) in part.iter_mut().zip(a_part).zip(b_part) {
                *o = f(x, y);
            }
        });
        Ok(out)
    }

    /// Parallel elementwise transform into a fresh tensor.
    fn unary_elementwise(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = Tensor::zeros(&self.shape);
        let a = self.buf.data.as_slice();
        par::for_each_part_mut(out.data_mut(), 1, 2 * F32, |offset, part| {
            let a_part = &a[offset..offset + part.len()];
            for (o, &x) in part.iter_mut().zip(a_part) {
                *o = f(x);
            }
        });
        out
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_elementwise(other, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_elementwise(other, "sub", |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_elementwise(other, "mul", |a, b| a * b)
    }

    /// Elementwise quotient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_elementwise(other, "div", |a, b| a / b)
    }

    /// Applies `f` to corresponding elements of `self` and `other`.
    ///
    /// Runs serially: `f` is an arbitrary (possibly non-`Sync`) closure.
    /// The fixed arithmetic ops ([`Tensor::add`] etc.) take the parallel
    /// path instead.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_with(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        self.zip_check(other, op)?;
        let data = self
            .buf
            .data
            .iter()
            .zip(&other.buf.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, &self.shape)
    }

    /// In-place elementwise sum: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.zip_check(other, "add_assign")?;
        let b = other.buf.data.as_slice();
        par::for_each_part_mut(self.data_mut(), 1, 3 * F32, |offset, part| {
            let b_part = &b[offset..offset + part.len()];
            for (a, &bv) in part.iter_mut().zip(b_part) {
                *a += bv;
            }
        });
        Ok(())
    }

    /// In-place scaled sum: `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn scaled_add_assign(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.zip_check(other, "scaled_add_assign")?;
        let b = other.buf.data.as_slice();
        par::for_each_part_mut(self.data_mut(), 1, 3 * F32, |offset, part| {
            let b_part = &b[offset..offset + part.len()];
            for (a, &bv) in part.iter_mut().zip(b_part) {
                *a += alpha * bv;
            }
        });
        Ok(())
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_parts(
            self.buf.data.iter().map(|&x| f(x)).collect(),
            self.shape.clone(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Multiplies every element by `s`.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.unary_elementwise(move |x| x * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        par::for_each_part_mut(self.data_mut(), 1, 2 * F32, |_, part| {
            for x in part.iter_mut() {
                *x *= s;
            }
        });
    }

    /// Hyperbolic tangent of every element: the crate's own vectorizable
    /// rational kernel (`cbrng.rs`), not libm — absolute error ≤ 3e-7, and
    /// the result is a pure function of the input bits on every host.
    pub fn tanh(&self) -> Tensor {
        self.unary_elementwise(crate::cbrng::tanh)
    }

    /// `scale · softmax` of every row of a rank-2 tensor, through the
    /// crate's own `exp` and `ln` (`cbrng.rs`), not libm: the result is a
    /// pure function of the input bits on every host.
    ///
    /// Per row: the max, `exp(x − max)` written in place with 8-lane partial
    /// sums, then one multiply by `scale / Σ`. Then `finish(i, row, log_z)`
    /// sees the finished row `i` while it is still in cache, with its
    /// log-partition `log_z = max + ln Σ`, so `−ln softmax(x)ⱼ = log_z − xⱼ`.
    /// Rows run in order on the calling thread, so `finish` may fold across
    /// them and the result is the same at every pool width.
    ///
    /// At `scale = 1` every row sums to 1 within `cols · 2⁻²³`. A NaN in a
    /// row makes the whole row and its `log_z` NaN.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank-2.
    pub fn softmax_rows(
        &self,
        scale: f32,
        mut finish: impl FnMut(usize, &mut [f32], f32),
    ) -> Result<Tensor> {
        let (_, c) = self.expect_matrix("softmax_rows")?;
        let mut out = self.clone();
        if c == 0 {
            return Ok(out);
        }
        for (i, row) in out.data_mut().chunks_exact_mut(c).enumerate() {
            let max = lane_max(row);
            let sum = exp_shifted_in_place(row, max);
            let k = scale / sum;
            for v in row.iter_mut() {
                *v *= k;
            }
            // `ln_unit` reads bits, so it would turn a NaN Σ into a number.
            let ln_sum = if sum.is_nan() {
                sum
            } else {
                crate::cbrng::ln_unit(sum)
            };
            finish(i, row, max + ln_sum);
        }
        Ok(out)
    }

    /// Adds a rank-1 bias to every row of a rank-2 tensor, in place: the
    /// operand is consumed and its buffer returned (callers pass the fresh
    /// product they just computed, so nothing is copied).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if `self` is not rank-2 or
    /// [`TensorError::ShapeMismatch`] if `bias.len()` differs from the column
    /// count.
    pub fn add_row_broadcast(mut self, bias: &Tensor) -> Result<Tensor> {
        let (_, c) = self.expect_matrix("add_row_broadcast")?;
        if bias.shape != [c] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: bias.shape.clone(),
                op: "add_row_broadcast",
            });
        }
        sanitize::check_finite("add_row_broadcast", "input", &self);
        sanitize::check_finite("add_row_broadcast", "bias", bias);
        if c > 0 {
            let bias = bias.buf.data.as_slice();
            par::for_each_part_mut(self.data_mut(), c, 2 * F32 * c, |_, rows| {
                for row in rows.chunks_exact_mut(c) {
                    for (o, &bv) in row.iter_mut().zip(bias) {
                        *o += bv;
                    }
                }
            });
        }
        Ok(self)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product of two rank-2 tensors.
    ///
    /// Packed register-blocked FMA microkernel (the private `kernels` module)
    /// behind a driver that parallelizes over output-row ranges on the
    /// [`par`] pool; every output element is one serial ascending-`p`
    /// `mul_add` chain, so results are bit-identical for any thread count
    /// and partition (see [`par`] module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.gemm("matmul", false, other, false)
    }

    /// `self * otherᵀ` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] if the column counts differ.
    pub fn matmul_t(&self, other: &Tensor) -> Result<Tensor> {
        self.gemm("matmul_t", false, other, true)
    }

    /// `selfᵀ * other` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] if the row counts differ.
    pub fn t_matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.gemm("t_matmul", true, other, false)
    }

    /// `self += aᵀ · b` in place, with no product-sized temporary: each
    /// element's `mul_add` chain over the shared rows of `a` and `b`
    /// resumes from the value `self` holds. On a zeroed `self` this is
    /// [`Tensor::t_matmul`] bit for bit — how a dense layer accumulates its
    /// weight gradient `xᵀ · dy`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] unless `a` is `[k, m]`, `b` is
    /// `[k, n]` and `self` is `[m, n]`.
    pub fn add_t_matmul(&mut self, a: &Tensor, b: &Tensor) -> Result<()> {
        let op = "add_t_matmul";
        let (m, k, av) = a.operand(op, true)?;
        let (k2, n, bv) = b.operand(op, false)?;
        let (rows, cols) = self.expect_matrix(op)?;
        if k != k2 || (rows, cols) != (m, n) {
            return Err(TensorError::ShapeMismatch {
                lhs: a.shape.clone(),
                rhs: b.shape.clone(),
                op,
            });
        }
        sanitize::check_finite(op, "lhs", a);
        sanitize::check_finite(op, "rhs", b);
        gemm_onto(
            op,
            self,
            k,
            Operand::Strided(av),
            Operand::Strided(bv),
            true,
        );
        Ok(())
    }

    /// This matrix as a logical `(rows, cols, view)` operand: transposing a
    /// stored `[r, c]` swaps the dimensions and the stride pair, not the data.
    pub(crate) fn operand(
        &self,
        op: &'static str,
        transposed: bool,
    ) -> Result<(usize, usize, View<'_>)> {
        let (r, c) = self.expect_matrix(op)?;
        let data = self.buf.data.as_slice();
        Ok(if transposed {
            (c, r, View { data, rs: 1, cs: c })
        } else {
            (r, c, View { data, rs: c, cs: 1 })
        })
    }

    /// The matmul family: `A · B` over two operand views (see
    /// [`Tensor::operand`]).
    fn gemm(&self, op: &'static str, a_t: bool, other: &Tensor, b_t: bool) -> Result<Tensor> {
        let (m, k, a) = self.operand(op, a_t)?;
        let (k2, n, b) = other.operand(op, b_t)?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op,
            });
        }
        sanitize::check_finite(op, "lhs", self);
        sanitize::check_finite(op, "rhs", other);
        Ok(gemm(op, m, k, n, Operand::Strided(a), Operand::Strided(b)))
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.buf.data.len() != other.buf.data.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "dot",
            });
        }
        Ok(par::chunked_dot(&self.buf.data, &other.buf.data))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    ///
    /// Uses the fixed-chunk association order of
    /// [`par::chunked_sum`] — deterministic for any thread count.
    pub fn sum(&self) -> f32 {
        par::chunked_sum(&self.buf.data)
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.buf.data.is_empty() {
            0.0
        } else {
            self.sum() / cast::len_to_f32(self.buf.data.len())
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn max(&self) -> Result<f32> {
        self.buf
            .data
            .iter()
            .copied()
            .fold(None, |m: Option<f32>, x| Some(m.map_or(x, |m| m.max(x))))
            .ok_or(TensorError::Empty { op: "max" })
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn min(&self) -> Result<f32> {
        self.buf
            .data
            .iter()
            .copied()
            .fold(None, |m: Option<f32>, x| Some(m.map_or(x, |m| m.min(x))))
            .ok_or(TensorError::Empty { op: "min" })
    }

    /// Euclidean (L2) norm of the flattened tensor.
    ///
    /// Accumulates in `f64` with the fixed-chunk association order of
    /// [`par::chunked_sumsq_f64`].
    pub fn norm_l2(&self) -> f32 {
        cast::f64_to_f32(par::chunked_sumsq_f64(&self.buf.data).sqrt())
    }

    /// L2 norm of `self − other` without materializing the difference: the
    /// bits of `self.sub(other)?.norm_l2()`, in one read-only pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn diff_norm_l2(&self, other: &Tensor) -> Result<f32> {
        self.zip_check(other, "diff_norm_l2")?;
        let sumsq = par::chunked_sumsq_diff_f64(&self.buf.data, &other.buf.data);
        Ok(cast::f64_to_f32(sumsq.sqrt()))
    }

    /// Column sums of a rank-2 tensor (shape `[ncols]`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank-2.
    pub fn sum_rows(&self) -> Result<Tensor> {
        let (_, c) = self.expect_matrix("sum_rows")?;
        let mut out = Tensor::zeros(&[c]);
        if c > 0 {
            // Row after row into the output: each column still adds its rows
            // in ascending order, so the sums are the index loop's bit for bit.
            let dst = out.data_mut();
            for row in self.buf.data.chunks_exact(c) {
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d += v;
                }
            }
        }
        Ok(out)
    }

    /// Index of the maximum element of each row of a rank-2 tensor.
    ///
    /// Ties resolve to the lowest index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank-2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        let (r, c) = self.expect_matrix("argmax_rows")?;
        let mut out = Vec::with_capacity(r);
        for i in 0..r {
            let row = &self.buf.data[i * c..(i + 1) * c];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Comparison helpers
    // ------------------------------------------------------------------

    /// `true` if both tensors have the same shape and all elements differ by
    /// at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .buf
                .data
                .iter()
                .zip(&other.buf.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// Lanes of the softmax row sweeps: one AVX2 register of `f32`.
const ROW_LANES: usize = 8;

/// Largest element of `row` (`−∞` if empty), in [`ROW_LANES`] running
/// maxima. A NaN is skipped here; [`exp_shifted_in_place`] carries it.
fn lane_max(row: &[f32]) -> f32 {
    let pick = |m: f32, v: f32| if v > m { v } else { m };
    let mut lanes = [f32::NEG_INFINITY; ROW_LANES];
    let (chunks, tail) = row.as_chunks::<ROW_LANES>();
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = pick(*m, v);
        }
    }
    for (m, &v) in lanes.iter_mut().zip(tail) {
        *m = pick(*m, v);
    }
    lanes.into_iter().fold(f32::NEG_INFINITY, pick)
}

/// Replaces every `x` of `row` by `exp(x − max)` and returns their sum, kept
/// in [`ROW_LANES`] partial sums folded pairwise at the end. The `exp` map
/// is its own loop: fused with the sums, LLVM leaves it half scalar.
fn exp_shifted_in_place(row: &mut [f32], max: f32) -> f32 {
    for v in row.iter_mut() {
        *v = crate::cbrng::exp(*v - max);
    }
    let mut lanes = [0.0f32; ROW_LANES];
    let (chunks, tail) = row.as_chunks::<ROW_LANES>();
    for chunk in chunks {
        for (s, &v) in lanes.iter_mut().zip(chunk) {
            *s += v;
        }
    }
    for (s, &v) in lanes.iter_mut().zip(tail) {
        *s += v;
    }
    let [a, b, c, d, e, f, g, h] = lanes;
    ((a + b) + (c + d)) + ((e + f) + (g + h))
}

impl Clone for Tensor {
    /// O(1): bumps the buffer refcount. No memory is duplicated (and none
    /// is recorded with the alloc ledgers) until one of the sharing tensors
    /// is written, at which point `Buf::clone` materializes — and records —
    /// a private copy for the writer.
    fn clone(&self) -> Self {
        profile::record_buffer_share();
        Tensor {
            buf: Arc::clone(&self.buf),
            shape: self.shape.clone(),
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.buf.data == other.buf.data
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        let data = &self.buf.data;
        if data.len() <= 8 {
            write!(f, " {:?}", data)
        } else {
            write!(
                f,
                " [{}, {}, ... , {}]",
                data[0],
                data[1],
                data[data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::ShapeDataMismatch { .. })
        ));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Tensor::from_fn(&[3, 4], |i| i as f32);
        let b = Tensor::from_fn(&[5, 4], |i| (i as f32).sin());
        let direct = a.matmul_t(&b).unwrap();
        let via_transpose = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor::from_fn(&[4, 3], |i| (i as f32).cos());
        let b = Tensor::from_fn(&[4, 5], |i| i as f32 * 0.5);
        let direct = a.t_matmul(&b).unwrap();
        let via_transpose = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn(&[3, 5], |i| i as f32);
        assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn scaled_add_assign_is_axpy() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.scaled_add_assign(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let x = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap();
        let b = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let y = x.add_row_broadcast(&b).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_slice(&[3.0, -1.0, 2.0]);
        assert_eq!(a.sum(), 4.0);
        assert!((a.mean() - 4.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.max().unwrap(), 3.0);
        assert_eq!(a.min().unwrap(), -1.0);
        assert!((a.norm_l2() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn diff_norm_matches_the_norm_of_the_difference() {
        let a = Tensor::from_fn(&[9000], |i| (i % 17) as f32 * 0.3 - 2.0);
        let b = Tensor::from_fn(&[9000], |i| (i % 13) as f32 * 0.7 - 4.0);
        let want = a.sub(&b).unwrap().norm_l2();
        assert_eq!(a.diff_norm_l2(&b).unwrap().to_bits(), want.to_bits());
        assert!(a.diff_norm_l2(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn empty_max_errors() {
        let a = Tensor::zeros(&[0]);
        assert!(matches!(a.max(), Err(TensorError::Empty { op: "max" })));
    }

    #[test]
    fn sum_rows_sums_columns() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.sum_rows().unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_within_cols_ulps() {
        let mut rng = crate::Rng::seed_from(12);
        for (r, c) in [
            (3, 1),
            (5, 2),
            (9, 7),
            (64, 8),
            (64, 100),
            (4, 1000),
            (2, 4099),
        ] {
            let x = rng.randn_with(&[r, c], 0.0, 8.0);
            let p = x.softmax_rows(1.0, |_, _, _| {}).unwrap();
            let bound = c as f64 * f64::from(f32::EPSILON);
            for (i, row) in p.as_slice().chunks_exact(c).enumerate() {
                let sum: f64 = row.iter().map(|&v| f64::from(v)).sum();
                assert!((sum - 1.0).abs() <= bound, "{r}×{c} row {i}: Σ = {sum}");
                assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn softmax_rows_match_an_f64_softmax_and_log_partition() {
        let mut rng = crate::Rng::seed_from(13);
        let (r, c) = (32, 37);
        let x = rng.randn_with(&[r, c], 0.0, 6.0);
        let scale = 1.0 / 3.0;
        let mut seen = Vec::new();
        let p = x
            .softmax_rows(scale, |i, row, log_z| seen.push((i, row.len(), log_z)))
            .unwrap();
        assert_eq!(seen.len(), r);
        for (i, row) in x.as_slice().chunks_exact(c).enumerate() {
            let max = row
                .iter()
                .fold(f64::NEG_INFINITY, |m, &v| m.max(f64::from(v)));
            let z: f64 = row.iter().map(|&v| (f64::from(v) - max).exp()).sum();
            let (at, len, log_z) = seen[i];
            assert_eq!((at, len), (i, c));
            let want_log_z = max + z.ln();
            assert!((f64::from(log_z) - want_log_z).abs() <= 1e-6 * want_log_z.abs().max(1.0));
            for (j, &v) in row.iter().enumerate() {
                let want = f64::from(scale) * (f64::from(v) - max).exp() / z;
                let got = f64::from(p.as_slice()[i * c + j]);
                assert!(
                    (got - want).abs() <= 1e-6 * want + 1e-12,
                    "[{i},{j}] {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_carry_nan_and_reject_non_matrices() {
        let x = Tensor::from_vec(vec![0.0, f32::NAN, 1.0, 0.5, 2.0, -1.0], &[2, 3]).unwrap();
        let mut log_zs = Vec::new();
        let p = x
            .softmax_rows(1.0, |_, _, log_z| log_zs.push(log_z))
            .unwrap();
        assert!(p.as_slice()[..3].iter().all(|v| v.is_nan()) && log_zs[0].is_nan());
        assert!(p.as_slice()[3..].iter().all(|v| v.is_finite()) && log_zs[1].is_finite());
        assert!(Tensor::zeros(&[4]).softmax_rows(1.0, |_, _, _| {}).is_err());
        let empty = Tensor::zeros(&[3, 0])
            .softmax_rows(1.0, |_, _, _| unreachable!())
            .unwrap();
        assert_eq!(empty.shape(), &[3, 0]);
    }

    #[test]
    fn sum_rows_is_the_index_loop_bit_for_bit() {
        fn index_loop(a: &Tensor) -> Vec<f32> {
            let (r, c) = (a.shape()[0], a.shape()[1]);
            let src = a.as_slice();
            let mut dst = vec![0.0f32; c];
            for i in 0..r {
                for j in 0..c {
                    dst[j] += src[i * c + j];
                }
            }
            dst
        }
        let mut rng = crate::Rng::seed_from(11);
        for (r, c) in [
            (0, 5),
            (3, 0),
            (0, 0),
            (1, 1),
            (7, 3),
            (64, 48),
            (64, 100),
            (33, 17),
        ] {
            let a = rng.randn_with(&[r, c], 0.0, 10.0);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let got = bits(a.sum_rows().unwrap().as_slice());
            assert_eq!(got, bits(&index_loop(&a)), "{r}×{c}");
        }
    }

    #[test]
    fn argmax_rows_ties_resolve_low() {
        let a = Tensor::from_vec(vec![1.0, 1.0, 0.0, 5.0], &[2, 2]).unwrap();
        assert_eq!(a.argmax_rows().unwrap(), vec![0, 1]);
    }

    #[test]
    fn rows_and_row_slicing() {
        let a = Tensor::from_fn(&[4, 2], |i| i as f32);
        let mid = a.rows(1, 3).unwrap();
        assert_eq!(mid.shape(), &[2, 2]);
        assert_eq!(mid.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.row(3).unwrap().as_slice(), &[6.0, 7.0]);
        assert!(a.rows(3, 5).is_err());
    }

    #[test]
    fn gather_rows_reorders() {
        let a = Tensor::from_fn(&[3, 2], |i| i as f32);
        let g = a.gather_rows(&[2, 0]).unwrap();
        assert_eq!(g.as_slice(), &[4.0, 5.0, 0.0, 1.0]);
        assert!(a.gather_rows(&[3]).is_err());
    }

    #[test]
    fn vstack_concatenates() {
        let a = Tensor::from_fn(&[1, 2], |i| i as f32);
        let b = Tensor::from_fn(&[2, 2], |i| 10.0 + i as f32);
        let s = Tensor::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.as_slice(), &[0.0, 1.0, 10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn vstack_rejects_mismatched_columns() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        assert!(Tensor::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn reshape_roundtrip() {
        let a = Tensor::from_fn(&[2, 6], |i| i as f32);
        let b = a.reshape(&[3, 4]).unwrap();
        assert_eq!(b.shape(), &[3, 4]);
        assert_eq!(b.as_slice(), a.as_slice());
        assert!(a.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn get_set_multi_index() {
        let mut a = Tensor::zeros(&[2, 3, 4]);
        a.set(&[1, 2, 3], 7.0).unwrap();
        assert_eq!(a.get(&[1, 2, 3]).unwrap(), 7.0);
        assert_eq!(a.as_slice()[23], 7.0);
        assert!(a.get(&[2, 0, 0]).is_err());
        assert!(a.get(&[0, 0]).is_err());
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn display_never_empty() {
        assert!(!format!("{}", Tensor::zeros(&[0])).is_empty());
        assert!(!format!("{}", Tensor::zeros(&[100])).is_empty());
    }
}
