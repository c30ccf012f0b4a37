//! Property tests for the blocked parallel matmul kernels: every parallel /
//! blocked variant must agree with the naive sequential reference, and the
//! thread count must never change the result.
//!
//! The CI workflow runs this suite under `EDVIT_THREADS` 1, 2 and 4, so the
//! global-pool paths are exercised sequential and parallel. The explicit-pool
//! tests below additionally pit 1-thread and 8-thread pools against each
//! other inside one process, and the cross-ISA test runs every micro-kernel
//! the CPU supports (portable, AVX2+FMA 4×16, AVX-512 8×32) on the same
//! inputs — printing which ones it had to skip.

use edvit_parallel::ParallelPool;
use edvit_tensor::kernels::MicroKernel;
use edvit_tensor::{init::TensorRng, kernels, ops, Tensor};

/// Relative tolerance: the blocked/FMA kernels re-associate sums, so results
/// differ from the naive reference only by rounding.
const TOL: f32 = 1e-5;

fn assert_close(got: &[f32], expected: &[f32], context: &str) {
    assert_eq!(got.len(), expected.len(), "{context}: length mismatch");
    for (i, (x, y)) in got.iter().zip(expected).enumerate() {
        let scale = 1.0 + y.abs();
        assert!(
            (x - y).abs() <= TOL * scale,
            "{context}: element {i} differs: {x} vs {y}"
        );
    }
}

/// Random shapes covering the degenerate (0, 1) dimensions, the remainder
/// paths of the register tiles (8- and 4-row strips, 32-, 16- and 8-column
/// steps), the packing block edges
/// (`NC` = 128, `KC` = 256) and sizes straddling the parallel threshold
/// (`m·k·n` around 2²¹).
fn interesting_shapes(rng: &mut TensorRng) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (1, 1, 1),
        (1, 7, 1),
        (4, 4, 4),
        (5, 3, 9),
        (31, 33, 35),
        (64, 64, 64),
        (4, 257, 129),
        (130, 127, 129),
        (101, 101, 101),
        (102, 102, 102),
        (128, 64, 128),
        (96, 300, 64),
        // Straddle PAR_WORK_THRESHOLD = 2^21 = 128³, then well past it
        // (ragged row chunks, several packed panels, the benchmark's MLP).
        (127, 128, 128),
        (128, 128, 128),
        (203, 150, 131),
        (64, 192, 768),
    ];
    // A few fuzzed shapes per run (seeded, so reproducible).
    for _ in 0..6 {
        let d = |r: &mut TensorRng| (r.rand_uniform(&[1], 0.0, 1.0).data()[0] * 90.0) as usize + 1;
        shapes.push((d(rng), d(rng), d(rng)));
    }
    shapes
}

#[test]
fn blocked_parallel_matmul_matches_reference() {
    let mut rng = TensorRng::new(0xB10C);
    let pool = ParallelPool::new(8);
    for (m, k, n) in interesting_shapes(&mut rng) {
        let a = rng.rand_uniform(&[(m * k).max(1)], -1.0, 1.0).data()[..m * k].to_vec();
        let b = rng.rand_uniform(&[(k * n).max(1)], -1.0, 1.0).data()[..k * n].to_vec();
        let mut expected = vec![0.0f32; m * n];
        kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
        let mut got = vec![0.0f32; m * n];
        kernels::matmul(&a, &b, &mut got, m, k, n, &pool);
        assert_close(&got, &expected, &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
fn one_thread_and_eight_threads_agree_bitwise() {
    // The EDVIT_THREADS=1 / EDVIT_THREADS=8 contract, in-process: chunk
    // boundaries move with the thread count but each output row keeps its
    // accumulation order, so results must be bit-identical — not just close.
    let seq_pool = ParallelPool::new(1);
    let par_pool = ParallelPool::new(8);
    let mut rng = TensorRng::new(0x7EAD);
    for (m, k, n) in interesting_shapes(&mut rng) {
        let a = rng.rand_uniform(&[(m * k).max(1)], -1.0, 1.0).data()[..m * k].to_vec();
        let b = rng.rand_uniform(&[(k * n).max(1)], -1.0, 1.0).data()[..k * n].to_vec();

        let mut seq = vec![0.0f32; m * n];
        kernels::matmul(&a, &b, &mut seq, m, k, n, &seq_pool);
        let mut par = vec![0.0f32; m * n];
        kernels::matmul(&a, &b, &mut par, m, k, n, &par_pool);
        assert_eq!(seq, par, "matmul {m}x{k}x{n} differs across thread counts");

        let bt: Vec<f32> = rng.rand_uniform(&[(n * k).max(1)], -1.0, 1.0).data()[..n * k].to_vec();
        let mut seq_t = vec![0.0f32; m * n];
        kernels::matmul_transposed(&a, &bt, &mut seq_t, m, k, n, &seq_pool);
        let mut par_t = vec![0.0f32; m * n];
        kernels::matmul_transposed(&a, &bt, &mut par_t, m, k, n, &par_pool);
        assert_eq!(seq_t, par_t, "matmul_transposed {m}x{k}x{n} differs");
    }
}

/// Uniform `[-1, 1)` values, `len` of them (zero included).
fn uniform(rng: &mut TensorRng, len: usize) -> Vec<f32> {
    rng.rand_uniform(&[len.max(1)], -1.0, 1.0).data()[..len].to_vec()
}

#[test]
fn every_micro_kernel_agrees_and_the_fma_kernels_agree_bitwise() {
    // Which tile a row or column lands on differs between the kernels (8- or
    // 4-row strips; 32-, 16- or 8-column steps), so the shapes cover every
    // `m % 8`, `n % 32` on both sides of the 16-column FMA/scalar boundary,
    // `k` on both sides of `KC` = 256 and `n` on both sides of `NC` = 128.
    let mut shapes: Vec<(usize, usize, usize)> = (1..=17).map(|m| (m, 37, 50)).collect();
    shapes.extend((0..=33).map(|n| (11, 19, n)));
    shapes.extend([
        (8, 256, 32),
        (9, 257, 33),
        (24, 300, 127),
        (23, 513, 128),
        (13, 100, 129),
        (16, 64, 160),
        (12, 70, 300),
        (64, 192, 768),
        (64, 768, 192),
    ]);
    let detected = MicroKernel::detect();
    println!("matmul dispatches to {detected:?} on this CPU");
    let fma_kernels: Vec<MicroKernel> = [MicroKernel::Avx2Fma, MicroKernel::Avx512]
        .into_iter()
        .filter(|kernel| {
            let supported = kernel.is_supported();
            if !supported {
                println!(
                    "SKIPPED: {kernel:?} (this CPU lacks its features) — not covered by this run"
                );
            }
            supported
        })
        .collect();
    assert_eq!(
        detected,
        *fma_kernels.last().unwrap_or(&MicroKernel::Portable)
    );
    let mut rng = TensorRng::new(0x15A);
    for (m, k, n) in shapes {
        let (a, b) = (uniform(&mut rng, m * k), uniform(&mut rng, k * n));
        let run = |kernel: MicroKernel| {
            let mut out = vec![0.0f32; m * n];
            kernels::matmul_seq_with(kernel, &a, &b, &mut out, m, k, n);
            out
        };
        let mut expected = vec![0.0f32; m * n];
        kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
        let portable = run(MicroKernel::Portable);
        assert_close(&portable, &expected, &format!("portable {m}x{k}x{n}"));
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let fma: Vec<Vec<f32>> = fma_kernels.iter().map(|&kernel| run(kernel)).collect();
        for (kernel, got) in fma_kernels.iter().zip(&fma) {
            assert_close(got, &expected, &format!("{kernel:?} {m}x{k}x{n}"));
            assert_eq!(
                bits(got),
                bits(&fma[0]),
                "{kernel:?} and {:?} differ bitwise on {m}x{k}x{n}",
                fma_kernels[0]
            );
        }
    }
}

/// The bit patterns of `values`, so `-0.0 != 0.0` and a NaN equals itself.
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every micro-kernel this CPU supports, printing which ones `what` runs on
/// and which it has to skip.
fn supported_kernels(what: &str) -> Vec<MicroKernel> {
    [
        MicroKernel::Portable,
        MicroKernel::Avx2Fma,
        MicroKernel::Avx512,
    ]
    .into_iter()
    .filter(|kernel| {
        let supported = kernel.is_supported();
        if supported {
            println!("{what}: ran on {kernel:?}");
        } else {
            println!("SKIPPED: {what} on {kernel:?} (this CPU lacks its features) — not covered by this run");
        }
        supported
    })
    .collect()
}

#[test]
fn thin_products_equal_the_reference_bit_for_bit_on_every_kernel() {
    // Fewer than `MR` = 4 rows run unpacked over B where it lies, at the
    // vector width the micro-kernel names. Every element is still `k` unfused
    // multiply-adds in ascending `p` from +0.0 — the reference's arithmetic —
    // so no kernel may differ from it by a single bit: a compiler that
    // contracted the axpy into FMAs inside the AVX functions would fail here.
    // `k` covers the empty contraction and both sides of `KC` = 256, `n` the
    // vector-width tails (16 ± 1), both sides of `NC` = 128 and the two
    // widths of a fusion call.
    let kernels_here = supported_kernels("thin row×matrix kernel");
    let pools = [ParallelPool::new(1), ParallelPool::new(8)];
    let mut rng = TensorRng::new(0x7415);
    for m in [1usize, 2, 3] {
        for k in [0usize, 1, 37, 255, 256, 257, 768] {
            for n in [1usize, 10, 15, 16, 17, 127, 128, 129, 384] {
                let shape = format!("{m}x{k}x{n}");
                let (a, b) = (uniform(&mut rng, m * k), uniform(&mut rng, k * n));
                let bias = uniform(&mut rng, n);
                let mut expected = vec![0.0f32; m * n];
                kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
                let mut expected_biased = expected.clone();
                for row in expected_biased.chunks_exact_mut(n) {
                    for (o, c) in row.iter_mut().zip(&bias) {
                        *o += c;
                    }
                }
                for &kernel in &kernels_here {
                    let mut got = vec![0.0f32; m * n];
                    kernels::matmul_seq_with(kernel, &a, &b, &mut got, m, k, n);
                    assert_eq!(bits(&got), bits(&expected), "{kernel:?} on {shape}");
                }
                for pool in &pools {
                    let threads = pool.threads();
                    let mut got = vec![0.0f32; m * n];
                    kernels::matmul(&a, &b, &mut got, m, k, n, pool);
                    assert_eq!(bits(&got), bits(&expected), "{shape}, {threads} threads");
                    let mut got = vec![0.0f32; m * n];
                    kernels::matmul_bias(&a, &b, Some(&bias), &mut got, m, k, n, pool);
                    assert_eq!(
                        bits(&got),
                        bits(&expected_biased),
                        "{shape} + bias, {threads} threads"
                    );
                }
                // The tensor-level entry point on the global pool: a single
                // row, and leading dims that flatten to three rows.
                let dims: &[usize] = match m {
                    1 => &[1, k],
                    3 => &[1, 3, k],
                    _ => continue,
                };
                let fused = Tensor::from_vec(a, dims)
                    .unwrap()
                    .matmul_bias(
                        &Tensor::from_vec(b, &[k, n]).unwrap(),
                        &Tensor::vector(bias),
                    )
                    .unwrap();
                assert_eq!(fused.dims().last(), Some(&n));
                assert_eq!(
                    bits(fused.data()),
                    bits(&expected_biased),
                    "Tensor::matmul_bias on {dims:?}x[{k}, {n}]"
                );
            }
        }
    }
}

#[test]
fn remainder_rows_equal_the_reference_and_leave_the_strips_alone() {
    // From `MR` rows up B is packed as before. The `m % 4` rows after the
    // last strip take the one-row kernel over the packed panels — unfused,
    // ascending `p`, so bit for bit the reference's rows on every kernel —
    // and the strips before them compute what they compute without those
    // rows: the same bits as a product over the leading `m − m % 4` rows.
    let kernels_here = supported_kernels("remainder rows of a packed product");
    let mut rng = TensorRng::new(0x4E3D);
    for m in [5usize, 6, 7, 9, 13] {
        for (k, n) in [(37usize, 50usize), (300, 129), (768, 384)] {
            let (a, b) = (uniform(&mut rng, m * k), uniform(&mut rng, k * n));
            let mut expected = vec![0.0f32; m * n];
            kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
            let lead = m - m % 4;
            for &kernel in &kernels_here {
                let mut got = vec![0.0f32; m * n];
                kernels::matmul_seq_with(kernel, &a, &b, &mut got, m, k, n);
                assert_eq!(
                    bits(&got[lead * n..]),
                    bits(&expected[lead * n..]),
                    "{kernel:?}: remainder rows of {m}x{k}x{n}"
                );
                let mut strips = vec![0.0f32; lead * n];
                kernels::matmul_seq_with(kernel, &a[..lead * k], &b, &mut strips, lead, k, n);
                assert_eq!(
                    bits(&got[..lead * n]),
                    bits(&strips),
                    "{kernel:?}: strip rows of {m}x{k}x{n}"
                );
            }
        }
    }
}

#[test]
fn bias_epilogue_equals_matmul_then_row_broadcast_bitwise() {
    // `k` ≤ and > `KC` (one k-block, several), `n` across `NC` (the epilogue
    // runs once per column panel), row counts that split into ragged chunks
    // on the 8-thread pool, and the empty contraction (bias only).
    let mut rng = TensorRng::new(0xB1A5);
    for (m, k, n) in [
        (1usize, 5usize, 3usize),
        (7, 0, 9),
        (13, 256, 40),
        (64, 192, 768),
        (64, 768, 192),
        (203, 300, 131),
        (130, 600, 129),
    ] {
        let a = Tensor::from_vec(uniform(&mut rng, m * k), &[m, k]).unwrap();
        let b = Tensor::from_vec(uniform(&mut rng, k * n), &[k, n]).unwrap();
        let bias = Tensor::vector(uniform(&mut rng, n));
        for threads in [1, 8] {
            let pool = ParallelPool::new(threads);
            let mut plain = vec![0.0f32; m * n];
            kernels::matmul(a.data(), b.data(), &mut plain, m, k, n, &pool);
            let expected = Tensor::from_vec(plain, &[m, n])
                .unwrap()
                .add_row_broadcast(&bias)
                .unwrap();
            let mut fused = vec![0.0f32; m * n];
            let epilogue = Some(bias.data());
            kernels::matmul_bias(a.data(), b.data(), epilogue, &mut fused, m, k, n, &pool);
            let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&fused),
                bits(expected.data()),
                "{m}x{k}x{n} on {threads} threads"
            );
        }
        // The tensor-level entry point, any leading rank, on the global pool.
        let fused = a.matmul_bias(&b, &bias).unwrap();
        let expected = a.matmul(&b).unwrap().add_row_broadcast(&bias).unwrap();
        assert_eq!(fused, expected, "Tensor::matmul_bias {m}x{k}x{n}");
        if m % 2 == 0 {
            let stacked = a.reshape(&[2, m / 2, k]).unwrap();
            let fused = stacked.matmul_bias(&b, &bias).unwrap();
            assert_eq!(fused.dims(), &[2, m / 2, n]);
            assert_eq!(fused.data(), expected.data());
        }
    }
}

#[test]
fn scaled_transposed_equals_transposed_then_scale_bitwise() {
    // Attention scores each query row inline as `dot(q, k) · scale`; its
    // backward pass and the per-head oracle take `matmul_transposed` and
    // scale afterwards. The two agree bit for bit only while the transposed
    // product is the `dot` kernel element by element, at any thread count.
    let mut rng = TensorRng::new(0x5CA1);
    let scale = 1.0 / 32.0f32.sqrt();
    // Attention's per-head shape, a ragged one past the parallel threshold,
    // and the empty contraction.
    for (m, k, n) in [(64usize, 32usize, 64usize), (131, 70, 257), (5, 0, 4)] {
        let a = Tensor::from_vec(uniform(&mut rng, m * k), &[m, k]).unwrap();
        let bt = Tensor::from_vec(uniform(&mut rng, n * k), &[n, k]).unwrap();
        let inline: Vec<f32> = (0..m * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                let row = &a.data()[r * k..(r + 1) * k];
                kernels::dot(row, &bt.data()[c * k..(c + 1) * k]) * scale
            })
            .collect();
        let two_pass = a.matmul_transposed(&bt).unwrap().scale(scale);
        assert_eq!(bits(two_pass.data()), bits(&inline), "{m}x{k}x{n}");
        for threads in [1, 8] {
            let pool = ParallelPool::new(threads);
            let mut out = vec![f32::NAN; m * n];
            kernels::matmul_transposed(a.data(), bt.data(), &mut out, m, k, n, &pool);
            out.iter_mut().for_each(|v| *v *= scale);
            assert_eq!(
                bits(&out),
                bits(&inline),
                "{m}x{k}x{n} on {threads} threads"
            );
        }
    }
}

#[test]
fn transposed_parallel_matches_reference() {
    let mut rng = TensorRng::new(0x7A43);
    let pool = ParallelPool::new(8);
    for (m, k, n) in interesting_shapes(&mut rng) {
        let a = rng.rand_uniform(&[(m * k).max(1)], -1.0, 1.0).data()[..m * k].to_vec();
        let bt = rng.rand_uniform(&[(n * k).max(1)], -1.0, 1.0).data()[..n * k].to_vec();
        // Materialize B from Bᵀ for the reference.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut expected = vec![0.0f32; m * n];
        kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
        let mut got = vec![0.0f32; m * n];
        kernels::matmul_transposed(&a, &bt, &mut got, m, k, n, &pool);
        assert_close(&got, &expected, &format!("matmul_transposed {m}x{k}x{n}"));
    }
}

#[test]
fn tensor_level_ops_use_global_pool_and_match_reference() {
    // Tensor::matmul goes through ParallelPool::global() — whatever
    // EDVIT_THREADS says, the result must match the reference (this is the
    // test the CI runs under both EDVIT_THREADS=1 and the default).
    let mut rng = TensorRng::new(0x6E0);
    for (m, k, n) in [(130usize, 127usize, 129usize), (7, 257, 65)] {
        let a = rng.rand_uniform(&[m, k], -1.0, 1.0);
        let b = rng.rand_uniform(&[k, n], -1.0, 1.0);
        let mut expected = vec![0.0f32; m * n];
        kernels::matmul_reference(a.data(), b.data(), &mut expected, m, k, n);
        let got = a.matmul(&b).unwrap();
        assert_close(
            got.data(),
            &expected,
            &format!("Tensor::matmul {m}x{k}x{n}"),
        );

        let got_t = a.matmul_transposed(&b.transpose().unwrap()).unwrap();
        assert_close(
            got_t.data(),
            &expected,
            &format!("Tensor::matmul_transposed {m}x{k}x{n}"),
        );
    }
}

/// Row-op shapes straddling the parallel threshold (2^16 elements) and the
/// rows-per-chunk grouping: tiny rows, huge rows, a single row, ragged counts.
fn row_shapes() -> Vec<(usize, usize)> {
    vec![
        (1, 8),
        (3, 5),
        (16, 16),     // 256 elements: sequential path
        (196, 768),   // ViT-Base token grid: parallel path
        (4096, 8),    // many tiny rows, below the threshold
        (1, 32_768),  // one huge row, below the threshold
        (257, 129),   // ragged, below the threshold
        (64, 256),    // 2^14, the threshold before it was measured
        (256, 256),   // exactly 2^16, the boundary: 16 rows per chunk
        (1, 131_072), // one huge row: single chunk
        (260, 253),   // ragged, just past the threshold
    ]
}

#[test]
fn softmax_layernorm_gelu_are_bitwise_identical_across_thread_counts() {
    // The EDVIT_THREADS=1 vs EDVIT_THREADS=4 contract for the row-wise
    // activation/normalization kernels: chunk boundaries move with the
    // thread count, but every row (or element, for GELU) is computed by the
    // same sequential code — so the outputs must be bit-identical, not just
    // close.
    let seq_pool = ParallelPool::new(1);
    let par_pool = ParallelPool::new(4);
    let mut rng = TensorRng::new(0x50F7);
    for (rows, cols) in row_shapes() {
        let base = rng.randn(&[rows * cols], 0.0, 2.0).data().to_vec();
        let gamma: Vec<f32> = rng.rand_uniform(&[cols], 0.5, 1.5).data().to_vec();
        let beta: Vec<f32> = rng.rand_uniform(&[cols], -0.5, 0.5).data().to_vec();

        let mut seq = base.clone();
        ops::softmax_rows(&mut seq, cols, &seq_pool);
        let mut par = base.clone();
        ops::softmax_rows(&mut par, cols, &par_pool);
        assert_eq!(
            seq, par,
            "softmax {rows}x{cols} differs across thread counts"
        );
        // Reference: the public per-row slice kernel, row by row.
        let mut reference = base.clone();
        for row in reference.chunks_mut(cols) {
            ops::softmax_slice(row);
        }
        assert_eq!(
            seq, reference,
            "softmax {rows}x{cols} diverged from per-row kernel"
        );

        let mut seq = base.clone();
        ops::layer_norm_rows(&mut seq, cols, &gamma, &beta, &seq_pool);
        let mut par = base.clone();
        ops::layer_norm_rows(&mut par, cols, &gamma, &beta, &par_pool);
        assert_eq!(
            seq, par,
            "layernorm {rows}x{cols} differs across thread counts"
        );
        let mut reference = base.clone();
        for row in reference.chunks_mut(cols) {
            ops::layer_norm_slice(row, &gamma, &beta);
        }
        assert_eq!(
            seq, reference,
            "layernorm {rows}x{cols} diverged from per-row kernel"
        );

        let mut seq = base.clone();
        ops::gelu_map(&mut seq, &seq_pool);
        let mut par = base.clone();
        ops::gelu_map(&mut par, &par_pool);
        assert_eq!(seq, par, "gelu {rows}x{cols} differs across thread counts");
        let reference: Vec<f32> = base.iter().map(|&x| ops::gelu_scalar(x)).collect();
        assert_eq!(
            seq, reference,
            "gelu {rows}x{cols} diverged from scalar kernel"
        );
    }
}

#[test]
fn tensor_row_ops_use_global_pool_and_stay_bitwise_stable() {
    // Tensor::softmax_last_axis / layer_norm_last_axis / gelu go through
    // ParallelPool::global(); whatever EDVIT_THREADS says, they must equal
    // the sequential per-row kernels bit for bit (CI runs this under both
    // EDVIT_THREADS=1 and =4).
    use edvit_tensor::Tensor;
    let mut rng = TensorRng::new(0xB17);
    let x = rng.randn(&[196, 768], 0.0, 1.0);
    let cols = 768;

    let softmax = x.softmax_last_axis().unwrap();
    let mut reference = x.data().to_vec();
    for row in reference.chunks_mut(cols) {
        ops::softmax_slice(row);
    }
    assert_eq!(softmax.data(), reference.as_slice());

    let gamma = rng.rand_uniform(&[cols], 0.5, 1.5);
    let beta = rng.rand_uniform(&[cols], -0.5, 0.5);
    let normed = x.layer_norm_last_axis(&gamma, &beta).unwrap();
    let mut reference = x.data().to_vec();
    for row in reference.chunks_mut(cols) {
        ops::layer_norm_slice(row, gamma.data(), beta.data());
    }
    assert_eq!(normed.data(), reference.as_slice());

    let activated = x.gelu();
    let reference: Vec<f32> = x.data().iter().map(|&v| ops::gelu_scalar(v)).collect();
    assert_eq!(activated.data(), reference.as_slice());
    // Shape-preserving, and empty tensors stay legal.
    assert_eq!(activated.dims(), x.dims());
    assert_eq!(Tensor::zeros(&[0]).gelu().numel(), 0);
}

#[test]
fn layer_norm_training_kernels_are_bitwise_identical_across_thread_counts() {
    // The forward/backward layer-norm kernels used by `edvit_nn::LayerNorm`:
    // per-row math is identical at every thread count, and the parameter
    // gradients fold fixed row-chunks in a fixed order, so all five outputs
    // (x_hat, out, inv_std, grad_x, grad_gamma/grad_beta) must be
    // bit-identical between a 1-thread and a 4-thread pool.
    let seq_pool = ParallelPool::new(1);
    let par_pool = ParallelPool::new(4);
    let mut rng = TensorRng::new(0x1A7E);
    for (rows, cols) in row_shapes() {
        if cols == 0 || rows == 0 {
            continue;
        }
        let x = rng.randn(&[rows * cols], 0.0, 2.0).data().to_vec();
        let g = rng.randn(&[rows * cols], 0.0, 1.0).data().to_vec();
        let gamma: Vec<f32> = rng.rand_uniform(&[cols], 0.5, 1.5).data().to_vec();
        let beta: Vec<f32> = rng.rand_uniform(&[cols], -0.5, 0.5).data().to_vec();

        let run_forward = |pool: &ParallelPool| {
            let mut x_hat = vec![0.0f32; rows * cols];
            let mut out = vec![0.0f32; rows * cols];
            let mut inv_std = vec![0.0f32; rows];
            ops::layer_norm_forward_rows(
                &x,
                cols,
                &gamma,
                &beta,
                &mut x_hat,
                &mut out,
                &mut inv_std,
                pool,
            );
            (x_hat, out, inv_std)
        };
        let (x_hat, out, inv_std) = run_forward(&seq_pool);
        assert_eq!(
            run_forward(&par_pool),
            (x_hat.clone(), out.clone(), inv_std.clone()),
            "layernorm forward {rows}x{cols} differs across thread counts"
        );
        // The affine output matches the inference kernel up to rounding (it
        // multiplies by 1/std instead of dividing by std).
        let mut reference = x.clone();
        for row in reference.chunks_mut(cols) {
            ops::layer_norm_slice(row, &gamma, &beta);
        }
        assert_close(&out, &reference, &format!("layernorm fwd {rows}x{cols}"));

        let run_backward = |pool: &ParallelPool| {
            let mut grad_x = vec![0.0f32; rows * cols];
            ops::layer_norm_backward_rows(&g, &x_hat, &inv_std, cols, &gamma, &mut grad_x, pool);
            let (gg, gb) = ops::layer_norm_param_grads_rows(&g, &x_hat, cols, pool);
            (grad_x, gg, gb)
        };
        let (grad_x, grad_gamma, grad_beta) = run_backward(&seq_pool);
        assert_eq!(
            run_backward(&par_pool),
            (grad_x, grad_gamma.clone(), grad_beta.clone()),
            "layernorm backward {rows}x{cols} differs across thread counts"
        );
        // Parameter gradients agree with a naive row-order accumulation up
        // to the reassociation introduced by chunked folding.
        let mut naive_gamma = vec![0.0f32; cols];
        let mut naive_beta = vec![0.0f32; cols];
        for r in 0..rows {
            for i in 0..cols {
                naive_gamma[i] += g[r * cols + i] * x_hat[r * cols + i];
                naive_beta[i] += g[r * cols + i];
            }
        }
        assert_close(
            &grad_gamma,
            &naive_gamma,
            &format!("grad_gamma {rows}x{cols}"),
        );
        assert_close(&grad_beta, &naive_beta, &format!("grad_beta {rows}x{cols}"));
    }
}
