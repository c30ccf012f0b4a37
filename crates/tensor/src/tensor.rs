use crate::{Shape, TensorError};

/// An owned, contiguous, row-major dense tensor of `f32` values.
///
/// `Tensor` is the workhorse data structure of the ED-ViT reproduction: model
/// weights, activations, datasets and feature messages are all `Tensor`s.
/// The representation is deliberately simple — a `Vec<f32>` plus a [`Shape`] —
/// which keeps every operation easy to audit and keeps results bit-for-bit
/// deterministic across runs.
///
/// # Example
///
/// ```
/// use edvit_tensor::Tensor;
///
/// # fn main() -> Result<(), edvit_tensor::TensorError> {
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// let doubled = x.scale(2.0);
/// assert_eq!(doubled.get(&[1, 2])?, 12.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not match
    /// the number of elements implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a rank-1 tensor of shape `[data.len()]` from a flat vector.
    ///
    /// Infallible counterpart of [`Tensor::from_vec`] for the common case
    /// where the shape *is* the length — decode paths and feature plumbing
    /// use this instead of `from_vec(..).expect(..)`.
    pub fn vector(data: Vec<f32>) -> Self {
        let shape = Shape::new(&[data.len()]);
        Tensor { data, shape }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// Creates a 1-D tensor with values `0, 1, ..., n-1`.
    pub fn arange(n: usize) -> Self {
        Tensor {
            data: (0..n).map(|i| i as f32).collect(),
            shape: Shape::new(&[n]),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Returns the shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Returns the underlying data slice in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable reference to the underlying data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error when the index rank or any component is out of range.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        let flat = self.shape.flat_index(index)?;
        Ok(self.data[flat])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error when the index rank or any component is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Returns the single value of a tensor with exactly one element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the tensor has more than
    /// one element.
    pub fn item(&self) -> Result<f32, TensorError> {
        if self.numel() == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::InvalidArgument {
                message: format!("item() on tensor with {} elements", self.numel()),
            })
        }
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: new_shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: new_shape,
        })
    }

    /// Consuming [`Tensor::reshape`]: the same buffer under a new shape, no
    /// copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the element counts differ.
    pub fn into_reshaped(self, dims: &[usize]) -> Result<Tensor, TensorError> {
        Tensor::from_vec(self.data, dims)
    }

    /// Flattens the tensor to one dimension.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            data: self.data.clone(),
            shape: Shape::new(&[self.numel()]),
        }
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for tensors that are not rank 2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols, rows])
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies a function to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor, TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "zip",
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise division.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "add_assign",
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
        Ok(())
    }

    /// Adds `alpha * other` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Tensor, alpha: f32) -> Result<(), TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "add_scaled_assign",
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, producing a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Adds a scalar to every element, producing a new tensor.
    pub fn add_scalar(&self, alpha: f32) -> Tensor {
        self.map(|x| x + alpha)
    }

    /// Broadcast-adds a 1-D bias of length `last_dim` across the last axis.
    ///
    /// This is the broadcasting pattern used by linear layers and layer
    /// normalization, so it gets a dedicated fast path.
    ///
    /// # Errors
    ///
    /// Returns an error if `bias` is not rank 1 or its length does not match
    /// the last dimension of `self`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor, TensorError> {
        if bias.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: bias.rank(),
                op: "add_row_broadcast",
            });
        }
        let last = *self.dims().last().ok_or(TensorError::EmptyInput {
            op: "add_row_broadcast",
        })?;
        if bias.numel() != last {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: bias.dims().to_vec(),
                op: "add_row_broadcast",
            });
        }
        let mut out = self.clone();
        // `last == 0` means no elements; `chunks_exact_mut(0)` would panic.
        for row in out.data.chunks_exact_mut(last.max(1)) {
            for (v, &b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Broadcast-multiplies by a 1-D vector of length `last_dim` along the
    /// last axis (used for layer-norm scale parameters).
    ///
    /// # Errors
    ///
    /// Returns an error if `scale` is not rank 1 or its length does not match
    /// the last dimension of `self`.
    pub fn mul_row_broadcast(&self, scale: &Tensor) -> Result<Tensor, TensorError> {
        if scale.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: scale.rank(),
                op: "mul_row_broadcast",
            });
        }
        let last = *self.dims().last().ok_or(TensorError::EmptyInput {
            op: "mul_row_broadcast",
        })?;
        if scale.numel() != last {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: scale.dims().to_vec(),
                op: "mul_row_broadcast",
            });
        }
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(last.max(1)) {
            for (v, &s) in row.iter_mut().zip(&scale.data) {
                *v *= s;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Row (outermost-axis) access, used heavily for batched data
    // ------------------------------------------------------------------

    /// Returns the `i`-th slice along the first axis as a new tensor with the
    /// leading axis removed.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors or out-of-range rows.
    pub fn row(&self, i: usize) -> Result<Tensor, TensorError> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "row",
            });
        }
        let n = self.dims()[0];
        if i >= n {
            return Err(TensorError::IndexOutOfRange { index: i, len: n });
        }
        let row_len = self.numel() / n.max(1);
        let start = i * row_len;
        let data = self.data[start..start + row_len].to_vec();
        let dims: Vec<usize> = self.dims()[1..].to_vec();
        let dims = if dims.is_empty() { vec![1] } else { dims };
        Tensor::from_vec(data, &dims)
    }

    /// Overwrites the `i`-th slice along the first axis with `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when the row index is out of range or `row` has the
    /// wrong number of elements.
    pub fn set_row(&mut self, i: usize, row: &Tensor) -> Result<(), TensorError> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "set_row",
            });
        }
        let n = self.dims()[0];
        if i >= n {
            return Err(TensorError::IndexOutOfRange { index: i, len: n });
        }
        let row_len = self.numel() / n.max(1);
        if row.numel() != row_len {
            return Err(TensorError::LengthMismatch {
                expected: row_len,
                actual: row.numel(),
            });
        }
        let start = i * row_len;
        self.data[start..start + row_len].copy_from_slice(row.data());
        Ok(())
    }

    /// Gathers rows (slices along axis 0) at the given indices into a new
    /// tensor whose leading dimension equals `indices.len()`.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors or out-of-range indices.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor, TensorError> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "gather_rows",
            });
        }
        let n = self.dims()[0];
        let row_len = self.numel().checked_div(n).unwrap_or(0);
        let mut data = Vec::with_capacity(indices.len() * row_len);
        for &i in indices {
            if i >= n {
                return Err(TensorError::IndexOutOfRange { index: i, len: n });
            }
            data.extend_from_slice(&self.data[i * row_len..(i + 1) * row_len]);
        }
        let mut dims = self.dims().to_vec();
        dims[0] = indices.len();
        Tensor::from_vec(data, &dims)
    }

    // ------------------------------------------------------------------
    // Global reductions and norms
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm_l2(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of absolute values (L1 norm) of the flattened tensor.
    pub fn norm_l1(&self) -> f32 {
        self.data.iter().map(|x| x.abs()).sum::<f32>()
    }

    /// Index of the maximum element of a flattened tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty tensor.
    pub fn argmax(&self) -> Result<usize, TensorError> {
        if self.data.is_empty() {
            return Err(TensorError::EmptyInput { op: "argmax" });
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Returns `true` when every element is finite (no NaN or infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
        assert_eq!(Tensor::scalar(5.0).item().unwrap(), 5.0);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        assert_eq!(t.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshape(&[4]).is_err());
        assert_eq!(t.flatten().dims(), &[6]);
        assert_eq!(
            t.clone().into_reshaped(&[3, 2]).unwrap(),
            t.reshape(&[3, 2]).unwrap()
        );
        assert!(t.into_reshaped(&[4]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get(&[0, 1]).unwrap(), 4.0);
        assert_eq!(tt.get(&[2, 0]).unwrap(), 3.0);
        assert!(Tensor::arange(3).transpose().is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().data(), &[4.0, 2.5, 2.0]);
        let c = Tensor::zeros(&[4]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn inplace_ops() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0, 4.0]);
        a.add_scaled_assign(&b, -1.0).unwrap();
        assert_eq!(a.data(), &[1.0, 1.0, 1.0]);
        a.map_inplace(|x| x * 10.0);
        assert_eq!(a.data(), &[10.0, 10.0, 10.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::arange(3);
        assert_eq!(a.scale(2.0).data(), &[0.0, 2.0, 4.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_broadcasting() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let y = x.add_row_broadcast(&b).unwrap();
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
        let z = x.mul_row_broadcast(&b).unwrap();
        assert_eq!(z.data(), &[10.0, 40.0, 30.0, 80.0]);
        let bad = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert!(x.add_row_broadcast(&bad).is_err());
    }

    #[test]
    fn row_access() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        assert_eq!(x.row(1).unwrap().data(), &[3.0, 4.0]);
        assert!(x.row(3).is_err());
        let mut y = x.clone();
        y.set_row(0, &Tensor::from_vec(vec![9.0, 9.0], &[2]).unwrap())
            .unwrap();
        assert_eq!(y.row(0).unwrap().data(), &[9.0, 9.0]);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let g = x.gather_rows(&[2, 0, 2]).unwrap();
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        assert!(x.gather_rows(&[5]).is_err());
    }

    #[test]
    fn reductions() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap();
        assert_eq!(x.sum(), -2.0);
        assert_eq!(x.mean(), -0.5);
        assert_eq!(x.max(), 3.0);
        assert_eq!(x.min(), -4.0);
        assert_eq!(x.norm_l1(), 10.0);
        assert!((x.norm_l2() - 30.0_f32.sqrt()).abs() < 1e-6);
        assert_eq!(x.argmax().unwrap(), 2);
        assert!(x.all_finite());
    }

    #[test]
    fn non_finite_detection() {
        let x = Tensor::from_vec(vec![1.0, f32::NAN], &[2]).unwrap();
        assert!(!x.all_finite());
    }

    #[test]
    fn item_requires_single_element() {
        assert!(Tensor::zeros(&[2]).item().is_err());
        assert_eq!(Tensor::scalar(3.0).item().unwrap(), 3.0);
    }
}
