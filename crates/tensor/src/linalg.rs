//! Dense linear algebra: 2-D and batched matrix multiplication.
//!
//! The matrix multiply is the single hottest kernel in the reproduction (all
//! transformer projections, attention score computation and the CNN baselines'
//! im2col path funnel through it). The heavy lifting lives in
//! [`crate::kernels`]: blocked, register-tiled loops with B packed into
//! cache-sized column panels, split across the process-wide
//! [`edvit_parallel::ParallelPool`] above a size threshold. This module only
//! does shape checking and dispatch.

use edvit_parallel::ParallelPool;

use crate::{kernels, Tensor, TensorError};

impl Tensor {
    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D inputs and
    /// [`TensorError::MatmulDimMismatch`] when the inner dimensions disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use edvit_tensor::Tensor;
    /// # fn main() -> Result<(), edvit_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: if self.rank() != 2 {
                    self.rank()
                } else {
                    other.rank()
                },
                op: "matmul",
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        kernels::matmul(
            self.data(),
            other.data(),
            &mut out,
            m,
            k,
            n,
            ParallelPool::global(),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// The affine map of a linear layer, `self · weight + bias` over the last
    /// axis: `[.., k] x [k, n] + [n] -> [.., n]`, every leading axis of `self`
    /// flattened into the row dimension. One output buffer, no intermediate:
    /// the bias goes in as the matmul's epilogue
    /// ([`kernels::matmul_bias`]), with the bits of `matmul` followed by
    /// [`Tensor::add_row_broadcast`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is rank 0, `weight`
    /// is not rank 2 or `bias` is not rank 1, [`TensorError::MatmulDimMismatch`]
    /// when the last axis of `self` is not `k`, and
    /// [`TensorError::ShapeMismatch`] when `bias` is not `n` long.
    pub fn matmul_bias(&self, weight: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
        for (tensor, expected) in [(weight, 2), (bias, 1)] {
            if tensor.rank() != expected {
                return Err(TensorError::RankMismatch {
                    expected,
                    actual: tensor.rank(),
                    op: "matmul_bias",
                });
            }
        }
        let (k, n) = (weight.dims()[0], weight.dims()[1]);
        let Some((&last, lead)) = self.dims().split_last() else {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "matmul_bias",
            });
        };
        if last != k {
            return Err(TensorError::MatmulDimMismatch {
                lhs: self.dims().to_vec(),
                rhs: weight.dims().to_vec(),
            });
        }
        if bias.numel() != n {
            return Err(TensorError::ShapeMismatch {
                lhs: weight.dims().to_vec(),
                rhs: bias.dims().to_vec(),
                op: "matmul_bias",
            });
        }
        let m: usize = lead.iter().product();
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_bias(
            self.data(),
            weight.data(),
            Some(bias.data()),
            &mut out,
            m,
            k,
            n,
            ParallelPool::global(),
        );
        let mut dims = lead.to_vec();
        dims.push(n);
        Tensor::from_vec(out, &dims)
    }

    /// Matrix multiplication with the second operand transposed:
    /// `[m, k] x [n, k]^T -> [m, n]`.
    ///
    /// Avoids materializing the transpose; used for attention `Q K^T` and for
    /// weight-gradient computations.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Tensor::matmul`].
    pub fn matmul_transposed(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_transposed_scaled(other, 1.0)
    }

    /// `(self · otherᵀ) · scale`, the scale applied as each element is
    /// written — attention's `Q Kᵀ / √d` in one pass, with the bits of
    /// [`Tensor::matmul_transposed`] followed by [`Tensor::scale`].
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Tensor::matmul`].
    pub fn matmul_transposed_scaled(
        &self,
        other: &Tensor,
        scale: f32,
    ) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: if self.rank() != 2 {
                    self.rank()
                } else {
                    other.rank()
                },
                op: "matmul_transposed",
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_transposed_scaled(
            self.data(),
            other.data(),
            scale,
            &mut out,
            m,
            k,
            n,
            ParallelPool::global(),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix-vector product `[m, k] x [k] -> [m]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`] on shape problems.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || v.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "matvec",
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        if v.numel() != k {
            return Err(TensorError::MatmulDimMismatch {
                lhs: self.dims().to_vec(),
                rhs: v.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m];
        if k > 0 {
            for (o, row) in out.iter_mut().zip(self.data().chunks_exact(k)) {
                *o = kernels::dot(row, v.data());
            }
        }
        Tensor::from_vec(out, &[m])
    }

    /// Outer product of two vectors: `[m] x [n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-vector inputs.
    pub fn outer(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 1 || other.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: self.rank().max(other.rank()),
                op: "outer",
            });
        }
        let m = self.numel();
        let n = other.numel();
        let mut out = vec![0.0f32; m * n];
        if n > 0 {
            for (row, &av) in out.chunks_exact_mut(n).zip(self.data()) {
                for (o, &bv) in row.iter_mut().zip(other.data()) {
                    *o = av * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Dot product of two equally-sized vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.numel() != other.numel() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "dot",
            });
        }
        Ok(kernels::dot(self.data(), other.data()))
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let i4 = Tensor::eye(4);
        let c = a.matmul(&i4).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[4, 3]).unwrap();
        let c1 = a.matmul_transposed(&b).unwrap();
        let c2 = a.matmul(&b.transpose().unwrap()).unwrap();
        for (x, y) in c1.data().iter().zip(c2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matvec_and_dot() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let v = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let out = a.matvec(&v).unwrap();
        assert_eq!(out.data(), &[-1.0, -1.0]);
        assert_eq!(v.dot(&v).unwrap(), 2.0);
        assert!(v.dot(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn outer_product() {
        let u = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let v = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]).unwrap();
        let o = u.outer(&v).unwrap();
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn matmul_zero_rows_and_cols() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[0, 2]);
        assert_eq!(c.numel(), 0);
    }
}
