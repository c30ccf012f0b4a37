use crate::TensorError;

/// The dimensions of a [`crate::Tensor`], stored outermost-first (row-major).
///
/// `Shape` is a thin wrapper over `Vec<usize>` that centralizes the index
/// arithmetic used across the crate: element counts, strides, flat offsets and
/// axis validation.
///
/// # Example
///
/// ```
/// use edvit_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimensions.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Returns the number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Returns the total number of elements.
    ///
    /// A rank-0 shape has one element; any zero-sized dimension yields zero.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns the size of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides (in elements) for each axis.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank does not match or any component is
    /// out of range.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                actual: index.len(),
                op: "flat_index",
            });
        }
        let strides = self.strides();
        let mut flat = 0usize;
        for (axis, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfRange { index: i, len: d });
            }
            flat += i * strides[axis];
        }
        Ok(flat)
    }

    /// Returns `true` when two shapes are identical.
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
    }

    #[test]
    fn zero_dim_gives_zero_elements() {
        let s = Shape::new(&[3, 0, 5]);
        assert_eq!(s.numel(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let v = Shape::new(&[7]);
        assert_eq!(v.strides(), vec![1]);
    }

    #[test]
    fn flat_index_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.flat_index(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.flat_index(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.flat_index(&[0, 1, 2]).unwrap(), 6);
    }

    #[test]
    fn flat_index_rejects_bad_rank() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(
            s.flat_index(&[1]),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn flat_index_rejects_out_of_range() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(
            s.flat_index(&[2, 0]),
            Err(TensorError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn dim_and_axis_check() {
        let s = Shape::new(&[5, 6]);
        assert_eq!(s.dim(1).unwrap(), 6);
        assert!(s.dim(2).is_err());
    }

    #[test]
    fn display_formats_dims() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.to_string(), "[2, 3]");
    }
}
