//! Shared test utilities: finite-difference gradient checking.
//!
//! Only compiled for tests; every layer's backward pass is validated against
//! central finite differences of a random linear functional of the output.

use edvit_tensor::{init::TensorRng, Tensor};

use crate::Layer;

/// Maximum number of coordinates probed per tensor to keep tests fast.
const MAX_PROBES: usize = 24;

/// Checks input and parameter gradients of `layer` against central finite
/// differences.
///
/// The scalar loss is `sum(forward(x) * w)` for a fixed random weighting `w`,
/// whose gradient with respect to the output is exactly `w`.
///
/// # Panics
///
/// Panics (failing the test) when any analytic gradient deviates from the
/// finite-difference estimate by more than `tol * (1 + |fd|)`.
pub fn finite_difference_check(
    mut layer: Box<dyn Layer>,
    input_dims: &[usize],
    tol: f32,
    seed: u64,
) {
    let mut rng = TensorRng::new(seed);
    let x = rng.randn(input_dims, 0.0, 1.0);
    // Fix the output weighting from a first forward pass.
    let out0 = layer.forward(&x).expect("forward failed");
    let w = TensorRng::new(seed ^ 0xABCD).rand_uniform(out0.dims(), -1.0, 1.0);

    let loss_of = |layer: &dyn Layer, x: &Tensor, w: &Tensor| -> f32 {
        let out = layer.forward(x).expect("forward failed");
        out.mul(w).expect("shape").sum()
    };

    // Analytic gradients, through what the training forward recorded.
    layer.zero_grad();
    let out = layer.forward_train(&x).expect("forward_train failed");
    assert_eq!(out, out0, "forward_train and forward disagree");
    let grad_in = layer.backward(&w).expect("backward failed");
    assert_eq!(grad_in.dims(), x.dims(), "input gradient shape mismatch");
    let param_grads: Vec<Tensor> = layer
        .parameters()
        .iter()
        .map(|p| {
            p.grad()
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(p.value().dims()))
        })
        .collect();

    let eps = 1e-2f32;

    // Input gradient check on a subset of coordinates.
    let probes = probe_indices(x.numel(), seed);
    for &i in &probes {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let fd = (loss_of(&*layer, &xp, &w) - loss_of(&*layer, &xm, &w)) / (2.0 * eps);
        let analytic = grad_in.data()[i];
        assert!(
            (analytic - fd).abs() <= tol * (1.0 + fd.abs()),
            "input grad mismatch at {i}: analytic {analytic} vs fd {fd}"
        );
    }

    // Parameter gradient checks.
    for (pi, param_grad) in param_grads.iter().enumerate() {
        let numel = layer.parameters()[pi].numel();
        let probes = probe_indices(numel, seed.wrapping_add(pi as u64 + 1));
        for &i in &probes {
            let original = layer.parameters()[pi].value().data()[i];
            set_param(&mut layer, pi, i, original + eps);
            let lp = loss_of(&*layer, &x, &w);
            set_param(&mut layer, pi, i, original - eps);
            let lm = loss_of(&*layer, &x, &w);
            set_param(&mut layer, pi, i, original);
            let fd = (lp - lm) / (2.0 * eps);
            let analytic = param_grad.data()[i];
            assert!(
                (analytic - fd).abs() <= tol * (1.0 + fd.abs()),
                "param {pi} grad mismatch at {i}: analytic {analytic} vs fd {fd}"
            );
        }
    }
}

fn set_param(layer: &mut Box<dyn Layer>, param_index: usize, coord: usize, value: f32) {
    let mut params = layer.parameters_mut();
    params[param_index].value_mut().data_mut()[coord] = value;
}

fn probe_indices(numel: usize, seed: u64) -> Vec<usize> {
    if numel <= MAX_PROBES {
        (0..numel).collect()
    } else {
        TensorRng::new(seed).sample_indices(numel, MAX_PROBES)
    }
}
