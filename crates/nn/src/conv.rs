use edvit_tensor::{init::TensorRng, Tensor};

use crate::{Layer, NnError, Parameter, Result};

/// A 2-D convolution implemented through im2col + matrix multiplication.
///
/// Inputs have shape `[batch, in_channels, height, width]`, outputs
/// `[batch, out_channels, out_h, out_w]`. This layer backs the VGG-style
/// Split-CNN baseline and the spiking baseline built from it. The Vision
/// Transformer's patch embedding does not use it: `PatchEmbed` flattens each
/// patch and projects it with a [`crate::Linear`], which is the same
/// kernel-equals-stride convolution written as one matmul.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Parameter,
    bias: Parameter,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    record: Option<ConvRecord>,
}

/// What [`Layer::forward_train`] records for [`Layer::backward`].
#[derive(Debug, Clone)]
struct ConvRecord {
    /// im2col matrix per batch element: `[out_h*out_w, in_c*k*k]`.
    columns: Vec<Tensor>,
    input_dims: Vec<usize>,
    out_h: usize,
    out_w: usize,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-normal weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero-sized channels, kernel or
    /// stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "invalid conv config: in={in_channels} out={out_channels} k={kernel} stride={stride}"
                ),
            });
        }
        let fan_in = in_channels * kernel * kernel;
        let weight = rng.kaiming_normal(fan_in, out_channels);
        Ok(Conv2d {
            weight: Parameter::new("conv.weight", weight),
            bias: Parameter::new("conv.bias", Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            record: None,
        })
    }

    /// Builds a convolution from an explicit weight matrix
    /// `[in_c*k*k, out_c]` and bias `[out_c]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for inconsistent shapes.
    #[allow(clippy::too_many_arguments)]
    pub fn from_weights(
        weight: Tensor,
        bias: Tensor,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if weight.dims() != [in_channels * kernel * kernel, out_channels]
            || bias.numel() != out_channels
        {
            return Err(NnError::InvalidConfig {
                message: "conv weight/bias shapes inconsistent with configuration".to_string(),
            });
        }
        Ok(Conv2d {
            weight: Parameter::new("conv.weight", weight),
            bias: Parameter::new("conv.bias", bias),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            record: None,
        })
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (square kernels only).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Immutable view of the `[in_c*k*k, out_c]` weight.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Immutable view of the bias.
    pub fn bias(&self) -> &Parameter {
        &self.bias
    }

    /// Returns a copy keeping only the listed output filters; this is the
    /// channel-wise filter pruning used by the NNFacet-style CNN baseline.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when an index is out of range.
    pub fn prune_filters(&self, keep: &[usize]) -> Result<Conv2d> {
        let weight = self.weight.value().select_last_axis(keep)?;
        let bias = self.bias.value().select_last_axis(keep)?;
        Conv2d::from_weights(
            weight,
            bias,
            self.in_channels,
            keep.len(),
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Returns a copy keeping only the listed input channels (needed so a
    /// pruned layer can follow another pruned layer).
    ///
    /// # Errors
    ///
    /// Returns a tensor error when an index is out of range.
    pub fn prune_input_channels(&self, keep: &[usize]) -> Result<Conv2d> {
        // The weight's rows are laid out channel-major: [in_c, k, k] flattened.
        let k2 = self.kernel * self.kernel;
        let mut rows = Vec::with_capacity(keep.len() * k2);
        for &c in keep {
            if c >= self.in_channels {
                return Err(NnError::InvalidConfig {
                    message: format!("input channel {c} out of range"),
                });
            }
            for i in 0..k2 {
                rows.push(c * k2 + i);
            }
        }
        let weight = self.weight.value().gather_rows(&rows)?;
        Conv2d::from_weights(
            weight,
            self.bias.value().clone(),
            keep.len(),
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Spatial output size for a given input size; `(0, 0)` when the kernel
    /// does not fit even once.
    fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let padded_h = h + 2 * self.padding;
        let padded_w = w + 2 * self.padding;
        if padded_h < self.kernel || padded_w < self.kernel {
            return (0, 0);
        }
        let oh = (padded_h - self.kernel) / self.stride + 1;
        let ow = (padded_w - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Expands one `[c, h, w]` sample into the im2col matrix
    /// `[out_h*out_w, c*k*k]`.
    fn im2col(&self, sample: &Tensor, h: usize, w: usize, oh: usize, ow: usize) -> Tensor {
        let k = self.kernel;
        let c = self.in_channels;
        let mut matrix = Tensor::zeros(&[oh * ow, c * k * k]);
        let cols = matrix.data_mut();
        let data = sample.data();
        for oy in 0..oh {
            for ox in 0..ow {
                let col_base = (oy * ow + ox) * c * k * k;
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                            let val =
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    data[ci * h * w + iy as usize * w + ix as usize]
                                } else {
                                    0.0
                                };
                            cols[col_base + ci * k * k + ky * k + kx] = val;
                        }
                    }
                }
            }
        }
        matrix
    }

    /// Scatters an im2col-shaped gradient back to a `[c, h, w]` image.
    fn col2im(&self, cols: &Tensor, h: usize, w: usize, oh: usize, ow: usize) -> Tensor {
        let k = self.kernel;
        let c = self.in_channels;
        let mut image = Tensor::zeros(&[c, h, w]);
        let img = image.data_mut();
        let data = cols.data();
        for oy in 0..oh {
            for ox in 0..ow {
                let col_base = (oy * ow + ox) * c * k * k;
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                img[ci * h * w + iy as usize * w + ix as usize] +=
                                    data[col_base + ci * k * k + ky * k + kx];
                            }
                        }
                    }
                }
            }
        }
        image
    }
}

impl Conv2d {
    /// The convolved output, and the im2col matrices the backward reads.
    fn convolve(&self, input: &Tensor) -> Result<(Tensor, ConvRecord)> {
        if input.rank() != 4 || input.dims()[1] != self.in_channels {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "conv expects [batch, {}, h, w], got {:?}",
                    self.in_channels,
                    input.dims()
                ),
            });
        }
        let (batch, _c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (oh, ow) = self.output_size(h, w);
        if oh == 0 || ow == 0 {
            return Err(NnError::InvalidConfig {
                message: format!("conv output would be empty for input {h}x{w}"),
            });
        }
        let mut columns = Vec::with_capacity(batch);
        let mut outputs = Vec::with_capacity(batch);
        for b in 0..batch {
            let sample = input.row(b)?;
            let cols = self.im2col(&sample, h, w, oh, ow);
            // [oh*ow, c*k*k] x [c*k*k, out_c] = [oh*ow, out_c]
            let out = cols
                .matmul(self.weight.value())?
                .add_row_broadcast(self.bias.value())?;
            // Transpose to channel-major [out_c, oh*ow] then reshape.
            let out = out.transpose()?.reshape(&[1, self.out_channels, oh, ow])?;
            outputs.push(out);
            columns.push(cols);
        }
        let refs: Vec<&Tensor> = outputs.iter().collect();
        let record = ConvRecord {
            columns,
            input_dims: input.dims().to_vec(),
            out_h: oh,
            out_w: ow,
        };
        Ok((Tensor::concat_first_axis(&refs)?, record))
    }
}

impl Layer for Conv2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(self.convolve(input)?.0)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let (out, record) = self.convolve(input)?;
        self.record = Some(record);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let record = self
            .record
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Conv2d" })?;
        let batch = record.input_dims[0];
        let (h, w) = (record.input_dims[2], record.input_dims[3]);
        let (oh, ow) = (record.out_h, record.out_w);
        if grad_output.dims() != [batch, self.out_channels, oh, ow] {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "conv backward expected grad {:?}, got {:?}",
                    [batch, self.out_channels, oh, ow],
                    grad_output.dims()
                ),
            });
        }
        let mut grad_inputs = Vec::with_capacity(batch);
        let mut grad_w_total = Tensor::zeros(self.weight.value().dims());
        let mut grad_b_total = Tensor::zeros(self.bias.value().dims());
        let weight_t = self.weight.value().transpose()?;
        for b in 0..batch {
            // Gradient of this sample as [oh*ow, out_c].
            let g = grad_output
                .row(b)?
                .reshape(&[self.out_channels, oh * ow])?
                .transpose()?;
            let cols = &record.columns[b];
            // dW = cols^T g
            grad_w_total.add_assign(&cols.transpose()?.matmul(&g)?)?;
            grad_b_total.add_assign(&g.sum_first_axis()?)?;
            // dcols = g W^T
            let dcols = g.matmul(&weight_t)?;
            let dimg = self.col2im(&dcols, h, w, oh, ow);
            grad_inputs.push(dimg.reshape(&[1, self.in_channels, h, w])?);
        }
        self.weight.accumulate_grad(&grad_w_total)?;
        self.bias.accumulate_grad(&grad_b_total)?;
        let refs: Vec<&Tensor> = grad_inputs.iter().collect();
        Ok(Tensor::concat_first_axis(&refs)?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn parameters(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference_check;

    #[test]
    fn output_size_formula() {
        let mut rng = TensorRng::new(0);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng).unwrap();
        assert_eq!(conv.output_size(32, 32), (32, 32));
        let conv = Conv2d::new(3, 8, 2, 2, 0, &mut rng).unwrap();
        assert_eq!(conv.output_size(32, 32), (16, 16));
        let conv = Conv2d::new(3, 8, 16, 16, 0, &mut rng).unwrap();
        assert_eq!(conv.output_size(224, 224), (14, 14));
    }

    #[test]
    fn forward_shape() {
        let mut rng = TensorRng::new(1);
        let conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng).unwrap();
        let x = rng.randn(&[2, 3, 8, 8], 0.0, 1.0);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn known_value_single_filter() {
        // 1x1 input channel, 2x2 kernel of all ones, stride 1, no padding.
        let weight = Tensor::ones(&[4, 1]);
        let bias = Tensor::zeros(&[1]);
        let conv = Conv2d::from_weights(weight, bias, 1, 1, 2, 1, 0).unwrap();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let y = conv.forward(&x).unwrap();
        // Each output = sum of 2x2 window.
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = TensorRng::new(0);
        assert!(Conv2d::new(0, 4, 3, 1, 0, &mut rng).is_err());
        assert!(Conv2d::new(3, 0, 3, 1, 0, &mut rng).is_err());
        assert!(Conv2d::new(3, 4, 0, 1, 0, &mut rng).is_err());
        let mut conv = Conv2d::new(3, 4, 3, 1, 0, &mut rng).unwrap();
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 8, 8])).is_err());
        assert!(conv.forward(&Tensor::zeros(&[1, 3, 2, 2])).is_err());
        assert!(conv.backward(&Tensor::zeros(&[1, 4, 6, 6])).is_err());
    }

    #[test]
    fn prune_filters_and_input_channels() {
        let mut rng = TensorRng::new(2);
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng).unwrap();
        let pruned = conv.prune_filters(&[0, 3]).unwrap();
        assert_eq!(pruned.out_channels(), 2);
        assert_eq!(pruned.weight().value().dims(), &[2 * 9, 2]);
        let pruned_in = conv.prune_input_channels(&[1]).unwrap();
        assert_eq!(pruned_in.in_channels(), 1);
        assert_eq!(pruned_in.weight().value().dims(), &[9, 4]);
        assert!(conv.prune_input_channels(&[5]).is_err());
    }

    #[test]
    fn pruned_conv_still_runs() {
        let mut rng = TensorRng::new(3);
        let conv = Conv2d::new(3, 6, 3, 1, 1, &mut rng).unwrap();
        let pruned = conv.prune_filters(&[1, 4]).unwrap();
        let x = rng.randn(&[1, 3, 6, 6], 0.0, 1.0);
        assert_eq!(pruned.forward(&x).unwrap().dims(), &[1, 2, 6, 6]);
    }

    #[test]
    fn gradcheck_small_conv() {
        let mut rng = TensorRng::new(4);
        let conv = Conv2d::new(2, 3, 2, 1, 0, &mut rng).unwrap();
        finite_difference_check(Box::new(conv), &[1, 2, 4, 4], 5e-2, 90);
    }

    #[test]
    fn gradcheck_strided_padded_conv() {
        let mut rng = TensorRng::new(5);
        let conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng).unwrap();
        finite_difference_check(Box::new(conv), &[2, 1, 5, 5], 5e-2, 91);
    }
}
