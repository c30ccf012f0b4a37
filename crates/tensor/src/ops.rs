//! Neural-network kernels and axis-wise operations.
//!
//! These free functions and `Tensor` methods implement the activation
//! functions, normalizations and reductions required by the Vision
//! Transformer, the CNN/SNN baselines and the fusion MLP.

use edvit_parallel::ParallelPool;

use crate::{approx, Tensor, TensorError};

/// Numerical epsilon used by normalization kernels.
const NORM_EPS: f32 = 1e-5;

/// Minimum total elements before a row-wise activation/normalization kernel
/// crosses the thread pool. GELU, softmax and layer norm all run at
/// ~1.1 ns/element on the reference box (`gelu_196x3072`, `softmax_256x257`,
/// `layernorm_196x768` in `cargo bench -p edvit-bench --bench kernels`), so
/// 2¹⁶ elements are ~72 µs of sequential work: four times the ~17 µs
/// `pool_dispatch` latency a region pays before a worker joins it. (The
/// previous 2¹⁴ was sized for libm GELU at ~22 ns/element; with the
/// vectorised kernels it would be one dispatch latency of work.)
const PAR_ELEMS_THRESHOLD: usize = 1 << 16;

/// Target elements per claimed chunk, so the shared-counter claiming can
/// balance uneven chunk costs without drowning in atomics.
const PAR_CHUNK_ELEMS: usize = 4096;

impl Tensor {
    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit applied elementwise.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Gaussian Error Linear Unit (tanh approximation), the activation used
    /// inside ViT feed-forward blocks. Large tensors split across the global
    /// thread pool; results are bit-identical at every thread count.
    pub fn gelu(&self) -> Tensor {
        let mut out = self.clone();
        gelu_map(out.data_mut(), ParallelPool::global());
        out
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(approx::sigmoid)
    }

    // ------------------------------------------------------------------
    // Row-wise (last-axis) softmax family
    // ------------------------------------------------------------------

    /// Softmax over the last axis, computed in a numerically stable way.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for rank-0 or empty tensors.
    ///
    /// # Example
    ///
    /// ```
    /// use edvit_tensor::Tensor;
    /// # fn main() -> Result<(), edvit_tensor::TensorError> {
    /// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3])?;
    /// let p = x.softmax_last_axis()?;
    /// assert!((p.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    /// # Ok(())
    /// # }
    /// ```
    pub fn softmax_last_axis(&self) -> Result<Tensor, TensorError> {
        let last = self.last_axis_len("softmax_last_axis")?;
        let mut out = self.clone();
        softmax_rows(out.data_mut(), last, ParallelPool::global());
        Ok(out)
    }

    /// Log-softmax over the last axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for rank-0 or empty tensors.
    pub fn log_softmax_last_axis(&self) -> Result<Tensor, TensorError> {
        let last = self.last_axis_len("log_softmax_last_axis")?;
        let mut out = self.clone();
        for chunk in out.data_mut().chunks_mut(last) {
            let max = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum: f32 = chunk.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            for v in chunk.iter_mut() {
                *v = *v - max - log_sum;
            }
        }
        Ok(out)
    }

    /// Layer normalization over the last axis with learnable `gamma`/`beta`:
    /// the kernel `edvit_nn::LayerNorm` runs ([`layer_norm_forward_rows`]).
    ///
    /// # Errors
    ///
    /// Returns an error when `gamma`/`beta` are not rank-1 vectors of the
    /// last-axis length.
    pub fn layer_norm_last_axis(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
    ) -> Result<Tensor, TensorError> {
        let last = self.last_axis_len("layer_norm_last_axis")?;
        if gamma.numel() != last || beta.numel() != last {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: gamma.dims().to_vec(),
                op: "layer_norm_last_axis",
            });
        }
        let mut out = Tensor::zeros(self.dims());
        layer_norm_forward_rows(
            self.data(),
            last,
            gamma.data(),
            beta.data(),
            out.data_mut(),
            None,
            ParallelPool::global(),
        );
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Axis reductions
    // ------------------------------------------------------------------

    /// Argmax along the last axis, removing it; returns indices as a vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for rank-0 or empty tensors.
    pub fn argmax_last_axis(&self) -> Result<Vec<usize>, TensorError> {
        let last = self.last_axis_len("argmax_last_axis")?;
        let mut out = Vec::with_capacity(self.numel() / last);
        for chunk in self.data().chunks(last) {
            let mut best = 0usize;
            for (i, &v) in chunk.iter().enumerate() {
                if v > chunk[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Sum over the first axis (used for bias gradients).
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors.
    pub fn sum_first_axis(&self) -> Result<Tensor, TensorError> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "sum_first_axis",
            });
        }
        let n = self.dims()[0];
        let row_len = self.numel().checked_div(n).unwrap_or(0);
        let mut acc = vec![0.0f32; row_len];
        for chunk in self.data().chunks(row_len.max(1)) {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        let dims: Vec<usize> = self.dims()[1..].to_vec();
        let dims = if dims.is_empty() { vec![1] } else { dims };
        Tensor::from_vec(acc, &dims)
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Concatenates tensors along the last axis. All inputs must agree on all
    /// other dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty input list and
    /// [`TensorError::ShapeMismatch`] for incompatible shapes.
    pub fn concat_last_axis(tensors: &[&Tensor]) -> Result<Tensor, TensorError> {
        if tensors.is_empty() {
            return Err(TensorError::EmptyInput {
                op: "concat_last_axis",
            });
        }
        let first = tensors[0];
        let rank = first.rank();
        if rank == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "concat_last_axis",
            });
        }
        let lead_dims = &first.dims()[..rank - 1];
        let rows: usize = lead_dims.iter().product::<usize>().max(1);
        let mut total_last = 0usize;
        for t in tensors {
            if t.rank() != rank || &t.dims()[..rank - 1] != lead_dims {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                    op: "concat_last_axis",
                });
            }
            total_last += t.dims()[rank - 1];
        }
        let mut out = Vec::with_capacity(rows * total_last);
        for r in 0..rows {
            for t in tensors {
                let last = t.dims()[rank - 1];
                out.extend_from_slice(&t.data()[r * last..(r + 1) * last]);
            }
        }
        let mut dims = lead_dims.to_vec();
        dims.push(total_last);
        Tensor::from_vec(out, &dims)
    }

    /// Concatenates tensors along the first axis (stacking batches).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty list and
    /// [`TensorError::ShapeMismatch`] when trailing dimensions differ.
    pub fn concat_first_axis(tensors: &[&Tensor]) -> Result<Tensor, TensorError> {
        if tensors.is_empty() {
            return Err(TensorError::EmptyInput {
                op: "concat_first_axis",
            });
        }
        let first = tensors[0];
        if first.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "concat_first_axis",
            });
        }
        let trailing = &first.dims()[1..];
        let mut total_rows = 0usize;
        for t in tensors {
            if t.rank() != first.rank() || &t.dims()[1..] != trailing {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                    op: "concat_first_axis",
                });
            }
            total_rows += t.dims()[0];
        }
        let mut out = Vec::with_capacity(total_rows * trailing.iter().product::<usize>().max(1));
        for t in tensors {
            out.extend_from_slice(t.data());
        }
        let mut dims = vec![total_rows];
        dims.extend_from_slice(trailing);
        Tensor::from_vec(out, &dims)
    }

    /// Selects columns (indices along the last axis), producing a tensor whose
    /// last dimension equals `indices.len()`.
    ///
    /// This is the core primitive behind structured pruning: keeping a subset
    /// of channels is exactly a column selection on the weight matrices.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors or out-of-range indices.
    pub fn select_last_axis(&self, indices: &[usize]) -> Result<Tensor, TensorError> {
        let last = self.last_axis_len("select_last_axis")?;
        for &i in indices {
            if i >= last {
                return Err(TensorError::IndexOutOfRange {
                    index: i,
                    len: last,
                });
            }
        }
        let rows = self.numel() / last;
        let mut out = Vec::with_capacity(rows * indices.len());
        for r in 0..rows {
            let base = r * last;
            for &i in indices {
                out.push(self.data()[base + i]);
            }
        }
        let mut dims = self.dims().to_vec();
        let Some(last_dim) = dims.last_mut() else {
            return Err(TensorError::EmptyInput {
                op: "select_last_axis",
            });
        };
        *last_dim = indices.len();
        Tensor::from_vec(out, &dims)
    }

    fn last_axis_len(&self, op: &'static str) -> Result<usize, TensorError> {
        match self.dims().last() {
            Some(&last) if self.numel() > 0 => Ok(last),
            _ => Err(TensorError::EmptyInput { op }),
        }
    }
}

/// `√(2/π)`, the constant of the tanh-approximated GELU.
const SQRT_2_OVER_PI: f32 = 0.797_884_6;
/// `e^z` overflows `f32` just above this, so from here on
/// `x / (1 + e^z)` is `−0.0`; cutting at 87 (|x| ≈ 9.99) instead of at the
/// overflow point (|x| ≈ 10.06) pins "saturated from |x| = 10" exactly.
const GELU_SATURATION: f32 = 87.0;

/// Scalar GELU using the tanh approximation from the original paper
/// (Hendrycks & Gimpel, 2016), matching PyTorch's `gelu(approximate="tanh")`.
///
/// With `u = √(2/π)·(x + 0.044715x³)`, `0.5·x·(1 + tanh u)` is rewritten as
/// `x / (1 + e^(−2u))` over [`approx::exp`]: one exponential and one
/// division, no cancellation in the negative tail, and straight-line code
/// that [`gelu_map`] vectorises. Saturates exactly: `x` for `x ≥ 10`,
/// `−0.0` for `x ≤ −10`; `±0` and NaN pass through.
#[inline(always)]
pub fn gelu_scalar(x: f32) -> f32 {
    let z = -2.0 * SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x);
    let e = if z > GELU_SATURATION {
        f32::INFINITY
    } else {
        approx::exp(z)
    };
    x / (1.0 + e)
}

/// Derivative of the tanh-approximated GELU, used by the backward passes;
/// built on the same [`approx::exp`] as the forward pass.
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + 0.044_715 * x3);
    let tanh_inner = approx::tanh(inner);
    let sech2 = 1.0 - tanh_inner * tanh_inner;
    0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// In-place numerically stable softmax over a mutable slice, on
/// [`approx::exp`]. A `−∞` logit gets exactly `0.0`; a row of nothing but
/// `−∞` becomes all zeros rather than NaN; a NaN logit stays NaN (and, as
/// before, leaves its row un-normalised).
pub fn softmax_slice(chunk: &mut [f32]) {
    if chunk.is_empty() {
        return;
    }
    // `f32::MIN` floor: keeps `v − max` at `−∞` (not NaN) for an all-`−∞`
    // row. The comparison skips NaN logits, as `f32::max` does.
    let max = lane_reduce(chunk, f32::MIN, |v| v, |m, v| if v > m { v } else { m });
    approx::map_lanes(chunk, move |v| approx::exp(v - max));
    let sum = lane_reduce(chunk, 0.0, |v| v, |s, v| s + v);
    if sum > 0.0 {
        for v in chunk.iter_mut() {
            *v /= sum;
        }
    }
}

/// Reduces `map` of each element of a slice over eight interleaved
/// accumulators: element `i` goes to accumulator `i % 8`, the accumulators
/// are folded in a fixed tree and the tail is folded in last. The order
/// depends only on the slice, so a sum is as deterministic as a left-to-right
/// one, but it is one vector op per eight elements instead of a serial
/// dependency chain.
#[inline(always)]
fn lane_reduce(
    values: &[f32],
    init: f32,
    map: impl Fn(f32) -> f32,
    op: impl Fn(f32, f32) -> f32,
) -> f32 {
    let mut acc = [init; 8];
    let mut blocks = values.chunks_exact(8);
    for block in &mut blocks {
        for (a, &v) in acc.iter_mut().zip(block) {
            *a = op(*a, map(v));
        }
    }
    let folded = op(
        op(op(acc[0], acc[4]), op(acc[2], acc[6])),
        op(op(acc[1], acc[5]), op(acc[3], acc[7])),
    );
    blocks
        .remainder()
        .iter()
        .fold(folded, |r, &v| op(r, map(v)))
}

/// Mean and (biased) variance of a non-empty layer-norm row, each summed on
/// [`lane_reduce`]'s fixed fold.
#[inline(always)]
fn row_moments(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    let mean = lane_reduce(row, 0.0, |v| v, |s, v| s + v) / n;
    let var = lane_reduce(row, 0.0, |v| (v - mean) * (v - mean), |s, v| s + v) / n;
    (mean, var)
}

/// How many whole rows each parallel chunk should carry so a chunk holds
/// roughly [`PAR_CHUNK_ELEMS`] elements.
fn rows_per_chunk(row_len: usize) -> usize {
    PAR_CHUNK_ELEMS.div_ceil(row_len.max(1)).max(1)
}

/// The chunk a row kernel over `len` elements hands [`ParallelPool::scope_chunks`]:
/// the whole slice below [`PAR_ELEMS_THRESHOLD`] (one chunk, which the pool
/// runs inline on the caller), else `parallel` elements.
fn chunk_elems(len: usize, parallel: usize) -> usize {
    if len < PAR_ELEMS_THRESHOLD {
        len
    } else {
        parallel
    }
}

/// In-place row-wise softmax over `data` viewed as rows of `row_len`
/// elements, split across `pool` one group of whole rows per chunk. Every row
/// is normalized by the identical sequential code whatever the thread count,
/// so results are *bit-identical* between `EDVIT_THREADS=1` and any other
/// pool size.
pub fn softmax_rows(data: &mut [f32], row_len: usize, pool: &ParallelPool) {
    debug_assert!(row_len == 0 || data.len().is_multiple_of(row_len));
    if row_len == 0 {
        return;
    }
    let chunk = chunk_elems(data.len(), rows_per_chunk(row_len) * row_len);
    pool.scope_chunks(data, chunk, |_, chunk| {
        for row in chunk.chunks_mut(row_len) {
            softmax_slice(row);
        }
    });
}

/// Row-wise layer-norm forward pass, the one `edvit_nn::LayerNorm` and
/// [`Tensor::layer_norm_last_axis`] run: writes the affine output
/// `x_hat * gamma + beta` to `out`, where `x_hat = (x - mean) * inv_std` and
/// `inv_std = 1 / sqrt(var + eps)` per row. A training forward passes
/// `record`, the buffers that then hold `x_hat` and the per-row `inv_std`
/// for the backward; inference passes `None` and writes `out` alone. Every
/// row is computed by the same per-row expressions whatever the pass
/// structure, so results are bit-identical at every thread count, with or
/// without a record.
pub fn layer_norm_forward_rows(
    x: &[f32],
    row_len: usize,
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    record: Option<(&mut [f32], &mut [f32])>,
    pool: &ParallelPool,
) {
    debug_assert!(row_len > 0 && x.len().is_multiple_of(row_len));
    debug_assert!(out.len() == x.len());
    debug_assert!(gamma.len() == row_len && beta.len() == row_len);
    let row_stats = |row: &[f32]| -> (f32, f32) {
        let (mean, var) = row_moments(row);
        (mean, 1.0 / (var + NORM_EPS).sqrt())
    };
    // One region per buffer written, each recomputing a row's statistics
    // from the same `x` bits, so all of them agree exactly.
    let chunk = chunk_elems(x.len(), rows_per_chunk(row_len) * row_len);
    pool.scope_chunks(out, chunk, |base, chunk| {
        for (out_row, row) in chunk.chunks_mut(row_len).zip(x[base..].chunks(row_len)) {
            let (mean, istd) = row_stats(row);
            let affine = gamma.iter().zip(beta);
            for ((o, &v), (&g, &b)) in out_row.iter_mut().zip(row).zip(affine) {
                *o = (v - mean) * istd * g + b;
            }
        }
    });
    let Some((x_hat, inv_std)) = record else {
        return;
    };
    debug_assert!(x_hat.len() == x.len() && inv_std.len() == x.len() / row_len);
    pool.scope_chunks(x_hat, chunk, |base, chunk| {
        for (x_hat_row, row) in chunk.chunks_mut(row_len).zip(x[base..].chunks(row_len)) {
            let (mean, istd) = row_stats(row);
            for (xh, &v) in x_hat_row.iter_mut().zip(row) {
                *xh = (v - mean) * istd;
            }
        }
    });
    pool.scope_chunks(inv_std, chunk / row_len, |first_row, chunk| {
        let rows = x[first_row * row_len..].chunks(row_len);
        for (slot, row) in chunk.iter_mut().zip(rows) {
            *slot = row_stats(row).1;
        }
    });
}

/// Row-wise layer-norm input gradient: for each row,
/// `grad_x = inv_std / n * (n * dxhat - Σ dxhat - x_hat * Σ dxhat·x_hat)`
/// with `dxhat = grad_out * gamma`. Rows are independent, so the kernel is
/// bit-identical at every thread count.
pub fn layer_norm_backward_rows(
    grad_out: &[f32],
    x_hat: &[f32],
    inv_std: &[f32],
    row_len: usize,
    gamma: &[f32],
    grad_x: &mut [f32],
    pool: &ParallelPool,
) {
    debug_assert!(row_len > 0 && grad_out.len().is_multiple_of(row_len));
    debug_assert!(x_hat.len() == grad_out.len() && grad_x.len() == grad_out.len());
    debug_assert!(inv_std.len() == grad_out.len() / row_len);
    debug_assert!(gamma.len() == row_len);
    let backward_row = |row: usize, gx_row: &mut [f32]| {
        let at = row * row_len;
        let g = &grad_out[at..at + row_len];
        let xh = &x_hat[at..at + row_len];
        let n = row_len as f32;
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_xhat = 0.0f32;
        for i in 0..row_len {
            let dx = g[i] * gamma[i];
            sum_dxhat += dx;
            sum_dxhat_xhat += dx * xh[i];
        }
        let istd = inv_std[row];
        for i in 0..row_len {
            let dx = g[i] * gamma[i];
            gx_row[i] = istd / n * (n * dx - sum_dxhat - xh[i] * sum_dxhat_xhat);
        }
    };
    let chunk = chunk_elems(grad_out.len(), rows_per_chunk(row_len) * row_len);
    pool.scope_chunks(grad_x, chunk, |base, chunk| {
        for (j, gx_row) in chunk.chunks_mut(row_len).enumerate() {
            backward_row(base / row_len + j, gx_row);
        }
    });
}

/// Row-wise layer-norm parameter gradients: `grad_gamma = Σ_rows g·x_hat`
/// and `grad_beta = Σ_rows g`. The reduction is chunked over a *fixed*
/// row-chunk decomposition (one partial per chunk, folded in chunk order),
/// so the floating-point summation order — and therefore every output bit —
/// is independent of the thread count.
pub fn layer_norm_param_grads_rows(
    grad_out: &[f32],
    x_hat: &[f32],
    row_len: usize,
    pool: &ParallelPool,
) -> (Vec<f32>, Vec<f32>) {
    debug_assert!(row_len > 0 && grad_out.len().is_multiple_of(row_len));
    debug_assert!(x_hat.len() == grad_out.len());
    let rows = grad_out.len() / row_len;
    let rpc = rows_per_chunk(row_len);
    let chunks = rows.div_ceil(rpc);
    let partial = |c: usize| -> (Vec<f32>, Vec<f32>) {
        let mut gg = vec![0.0f32; row_len];
        let mut gb = vec![0.0f32; row_len];
        for r in c * rpc..rows.min((c + 1) * rpc) {
            let at = r * row_len;
            for i in 0..row_len {
                gg[i] += grad_out[at + i] * x_hat[at + i];
                gb[i] += grad_out[at + i];
            }
        }
        (gg, gb)
    };
    // Below the threshold every partial is in one task, which runs inline.
    let mut partials = vec![(Vec::new(), Vec::new()); chunks];
    let per_task = if grad_out.len() < PAR_ELEMS_THRESHOLD {
        chunks
    } else {
        1
    };
    pool.scope_chunks(&mut partials, per_task, |first, slots| {
        for (c, slot) in (first..).zip(slots) {
            *slot = partial(c);
        }
    });
    let mut grad_gamma = vec![0.0f32; row_len];
    let mut grad_beta = vec![0.0f32; row_len];
    for (gg, gb) in partials {
        for i in 0..row_len {
            grad_gamma[i] += gg[i];
            grad_beta[i] += gb[i];
        }
    }
    (grad_gamma, grad_beta)
}

/// In-place elementwise GELU over `data`, split across `pool`; elementwise,
/// so chunk boundaries cannot change any value — bit-identical at every
/// thread count (and equal to [`gelu_scalar`] element by element, whichever
/// SIMD width the loop was compiled for).
pub fn gelu_map(data: &mut [f32], pool: &ParallelPool) {
    let chunk = chunk_elems(data.len(), PAR_CHUNK_ELEMS);
    pool.scope_chunks(data, chunk, |_, chunk| {
        approx::map_lanes(chunk, gelu_scalar);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn approx(a: f32, b: f32, eps: f32) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(x.relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU is odd-ish around 0, GELU(large) ~ identity.
        assert!(approx(gelu_scalar(0.0), 0.0, 1e-6));
        assert!(approx(gelu_scalar(3.0), 3.0, 0.01));
        assert!(approx(gelu_scalar(-3.0), 0.0, 0.01));
        // Reference value for x=1.0 (PyTorch tanh approx): ~0.8412.
        assert!(approx(gelu_scalar(1.0), 0.8412, 1e-3));
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.5, 2.5] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            assert!(
                approx(gelu_grad_scalar(x), fd, 1e-2),
                "grad mismatch at {x}: {} vs {}",
                gelu_grad_scalar(x),
                fd
            );
        }
    }

    #[test]
    fn sigmoid_and_tanh() {
        let x = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        assert!(approx(x.sigmoid().data()[0], 0.5, 1e-6));
        assert!(approx(approx::tanh(x.data()[0]), 0.0, 1e-6));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = x.softmax_last_axis().unwrap();
        for chunk in p.data().chunks(3) {
            let s: f32 = chunk.iter().sum();
            assert!(approx(s, 1.0, 1e-6));
            assert!(chunk.iter().all(|&v| v >= 0.0));
        }
        // Monotone: larger logits -> larger probabilities.
        assert!(p.data()[2] > p.data()[1]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0, 999.0], &[1, 3]).unwrap();
        let p = x.softmax_last_axis().unwrap();
        assert!(p.all_finite());
        assert!(approx(p.data().iter().sum::<f32>(), 1.0, 1e-5));
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let x = Tensor::from_vec(vec![0.5, -0.5, 2.0, 1.0], &[2, 2]).unwrap();
        let p = x.softmax_last_axis().unwrap();
        let lp = x.log_softmax_last_axis().unwrap();
        for (a, b) in p.data().iter().zip(lp.data()) {
            assert!(approx(a.ln(), *b, 1e-5));
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let gamma = Tensor::ones(&[4]);
        let beta = Tensor::zeros(&[4]);
        let y = x.layer_norm_last_axis(&gamma, &beta).unwrap();
        assert!(approx(y.mean(), 0.0, 1e-5));
        let var = y.data().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(approx(var, 1.0, 1e-2));
    }

    #[test]
    fn layer_norm_applies_gamma_beta() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let gamma = Tensor::from_vec(vec![2.0, 2.0], &[2]).unwrap();
        let beta = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let y = x.layer_norm_last_axis(&gamma, &beta).unwrap();
        assert!(approx(y.data()[0] + y.data()[1], 2.0, 1e-5));
        assert!(x.layer_norm_last_axis(&Tensor::ones(&[3]), &beta).is_err());
    }

    #[test]
    fn axis_reductions() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(x.argmax_last_axis().unwrap(), vec![2, 2]);
        assert_eq!(x.sum_first_axis().unwrap().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn concat_last_axis_works() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap();
        let c = Tensor::concat_last_axis(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        assert!(Tensor::concat_last_axis(&[]).is_err());
    }

    #[test]
    fn concat_first_axis_works() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        let c = Tensor::concat_first_axis(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bad = Tensor::zeros(&[1, 3]);
        assert!(Tensor::concat_first_axis(&[&a, &bad]).is_err());
    }

    #[test]
    fn select_last_axis_picks_columns() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let y = x.select_last_axis(&[2, 0]).unwrap();
        assert_eq!(y.dims(), &[2, 2]);
        assert_eq!(y.data(), &[3.0, 1.0, 6.0, 4.0]);
        assert!(x.select_last_axis(&[3]).is_err());
    }
}
