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
        // The probe ViT's backward products: fc1's input gradient `g·W1ᵀ`
        // at batch 2, and one head's `dOut·Vᵀ`.
        (64 * 2, 768, 192),
        (64, 32, 64),
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
    // Fewer than `MR` = 4 rows run unpacked over B where it lies, on the row
    // tile at the register width the micro-kernel names. Every element is
    // still `k` unfused multiply-adds in ascending `p` from +0.0 — the
    // reference's arithmetic — so no kernel may differ from it by a single
    // bit: a compiler that contracted the tile's multiply-adds into FMAs
    // would fail here. `k` covers the empty contraction and both sides of
    // `KC` = 256, `n` the vector-width tails (16 ± 1), both sides of `NC` =
    // 128, the two widths of a fusion call, and the tile's edges: both sides
    // of its 128-column block, and a masked 16-lane tail of every width
    // (15, none, 1 at 143, 144, 145 and again at 255, 256, 257).
    let kernels_here = supported_kernels("thin row×matrix kernel");
    let pools = [ParallelPool::new(1), ParallelPool::new(8)];
    let mut rng = TensorRng::new(0x7415);
    for m in [1usize, 2, 3] {
        for k in [0usize, 1, 37, 255, 256, 257, 768] {
            for n in [
                1usize, 10, 15, 16, 17, 127, 128, 129, 143, 144, 145, 255, 256, 257, 384,
            ] {
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
    // One row of B of special values, cycled across the columns so that
    // every lane of a register block and of the masked tail meets each of
    // them: ±0.0, ±∞, NaN and a subnormal. The reference's NaNs and the
    // tile's need not share a payload, so NaNs compare NaN-aware.
    let specials = [
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1e-40,
    ];
    for m in [1usize, 2, 3] {
        for (k, n) in [(1usize, 17usize), (37, 145), (300, 257), (768, 10)] {
            let shape = format!("{m}x{k}x{n} with a special row");
            let a = uniform(&mut rng, m * k);
            let mut b = uniform(&mut rng, k * n);
            let special_row = &mut b[k / 2 * n..][..n];
            for (value, special) in special_row.iter_mut().zip(specials.iter().cycle()) {
                *value = *special;
            }
            let mut expected = vec![0.0f32; m * n];
            kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
            for &kernel in &kernels_here {
                let mut got = vec![0.0f32; m * n];
                kernels::matmul_seq_with(kernel, &a, &b, &mut got, m, k, n);
                assert_eq!(
                    nan_aware_bits(&got),
                    nan_aware_bits(&expected),
                    "{kernel:?} on {shape}"
                );
            }
            for pool in &pools {
                let mut got = vec![0.0f32; m * n];
                kernels::matmul(&a, &b, &mut got, m, k, n, pool);
                let threads = pool.threads();
                assert_eq!(
                    nan_aware_bits(&got),
                    nan_aware_bits(&expected),
                    "{shape}, {threads} threads"
                );
            }
        }
    }
}

/// [`bits`], with every NaN mapped to one pattern.
fn nan_aware_bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

#[test]
fn remainder_rows_equal_the_reference_and_leave_the_strips_alone() {
    // From `MR` rows up B is packed as before. The `m % 4` rows after the
    // last strip take the row tile over the packed panels — unfused,
    // ascending `p`, each k-block continuing from what the last one left in
    // the output, so bit for bit the reference's rows on every kernel — and
    // the strips before them compute what they compute without those rows:
    // the same bits as a product over the leading `m − m % 4` rows. 7, 11
    // and 15 rows leave three remainder rows (on AVX-512 after an 8-row and
    // a 4-row strip), and `k` = 300 and 768 span several k-blocks. On the
    // 1- and 8-thread pools those rows keep the reference's bits too,
    // whichever chunk (a strip's, or a chunk of fewer than `MR` rows) they
    // land in.
    let kernels_here = supported_kernels("remainder rows of a packed product");
    let pools = [ParallelPool::new(1), ParallelPool::new(8)];
    let mut rng = TensorRng::new(0x4E3D);
    for m in [5usize, 6, 7, 9, 11, 13, 15] {
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
            for pool in &pools {
                let mut got = vec![0.0f32; m * n];
                kernels::matmul(&a, &b, &mut got, m, k, n, pool);
                let threads = pool.threads();
                assert_eq!(
                    bits(&got[lead * n..]),
                    bits(&expected[lead * n..]),
                    "remainder rows of {m}x{k}x{n}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn column_tails_equal_the_reference_bit_for_bit_on_every_kernel() {
    // The 4- and 8-row strips' vector tiles stop at their last full column
    // step (16 columns on the FMA kernels, 8 on the portable one); the
    // columns past it run on the row tile over the strip's rows, unfused,
    // in ascending `p`, each k-block continuing from what the last one left
    // in the output. So those columns are the reference's bits on every
    // kernel. Every `n % 16` from 1 to 15 is crossed with `m` over one and
    // two 4-row strips, an 8-row strip alone, with a remainder row and with
    // a 4-row strip and a remainder row after it, and with `k` below `KC` =
    // 256 (B read in place, one k-block) and above it (B packed, a second
    // k-block). `n` is the tail alone, or the tail after a 32- and a
    // 16-column step. The FMA kernels also agree with each other on every
    // column.
    let kernels_here = supported_kernels("column tail of a strip");
    let mut rng = TensorRng::new(0x7A11);
    for m in [4usize, 8, 9, 12, 17] {
        for k in [37usize, 300] {
            for n in (1..=15).flat_map(|r| [r, 48 + r]) {
                let shape = format!("{m}x{k}x{n}");
                let (a, b) = (uniform(&mut rng, m * k), uniform(&mut rng, k * n));
                let mut expected = vec![0.0f32; m * n];
                kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
                let mut fma: Option<Vec<f32>> = None;
                for &kernel in &kernels_here {
                    let mut got = vec![0.0f32; m * n];
                    kernels::matmul_seq_with(kernel, &a, &b, &mut got, m, k, n);
                    let step = if kernel == MicroKernel::Portable {
                        8
                    } else {
                        16
                    };
                    let tail = n - n % step;
                    let rows = got.chunks_exact(n).zip(expected.chunks_exact(n));
                    for (r, (got_row, expected_row)) in rows.enumerate() {
                        assert_eq!(
                            bits(&got_row[tail..]),
                            bits(&expected_row[tail..]),
                            "{kernel:?}: columns {tail}.. of row {r} of {shape}"
                        );
                    }
                    if kernel == MicroKernel::Portable {
                        continue;
                    }
                    match &fma {
                        None => fma = Some(got),
                        Some(avx2) => {
                            assert_eq!(bits(&got), bits(avx2), "{kernel:?} vs AVX2 on {shape}");
                        }
                    }
                }
            }
        }
    }
}

/// The documented strip arithmetic as a scalar model: `out = A·B` on
/// `kernel`, one `KC` = 256 k-block and one `NC` = 128 column panel at a time.
/// Rows below `m − m % 4`, left of the panel's last full vector step (`nc −
/// nc % 16` on the FMA kernels, `nc − nc % 8` on `Portable`), get a chain
/// from `+0.0` (`mul_add` on the FMA kernels, `acc + a·b` on `Portable`)
/// flushed into `out` with one add; every other element continues from
/// `out` with the row tile's unfused `acc + a·b`.
fn strip_model(
    kernel: MicroKernel,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    const KC: usize = 256;
    const NC: usize = 128;
    let fused = kernel != MicroKernel::Portable;
    let step = if fused { 16 } else { 8 };
    let strip_rows = m - m % 4;
    let mut out = vec![0.0f32; m * n];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let vector_cols = nc - nc % step;
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for i in 0..m {
                for j in jc..jc + nc {
                    let products = (pc..pc + kc).map(|p| (a[i * k + p], b[p * n + j]));
                    let o = &mut out[i * n + j];
                    if i < strip_rows && j - jc < vector_cols {
                        let chain = products.fold(0.0f32, |acc, (x, w)| {
                            if fused {
                                x.mul_add(w, acc)
                            } else {
                                acc + x * w
                            }
                        });
                        *o += chain;
                    } else {
                        *o = products.fold(*o, |acc, (x, w)| acc + x * w);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn strip_elements_follow_the_cross_isa_rule_on_every_kernel() {
    // Every element of a product, on every kernel this CPU has, is the bits
    // of `strip_model`: the strips' chains (fused on the FMA kernels, unfused
    // on `Portable`) left of their last full vector step, the row tile's
    // unfused continuation everywhere else. The shapes cover every `m % 8`
    // (8- and 4-row strips, remainder rows), every `n % 32` up to 47, `k`
    // across `KC` = 256 (a second k-block continues both kinds of element)
    // and `n` across `NC` = 128 (a second panel restarts the column
    // boundary). The detected kernel on an 8-thread pool must agree too:
    // chunk boundaries fall on 4-row strip boundaries.
    let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
    for m in 1..=17 {
        shapes.extend([1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47].map(|n| (m, 37, n)));
    }
    for m in [4usize, 7, 8, 9, 12, 13, 16, 17] {
        shapes.extend([(256, 40), (257, 129), (300, 150), (513, 33)].map(|(k, n)| (m, k, n)));
    }
    shapes.extend([(3, 300, 145), (24, 300, 257), (64, 260, 130)]);
    let kernels_here = supported_kernels("strip arithmetic");
    let pool = ParallelPool::new(8);
    let mut rng = TensorRng::new(0x5791);
    for (m, k, n) in shapes {
        let (a, b) = (uniform(&mut rng, m * k), uniform(&mut rng, k * n));
        for &kernel in &kernels_here {
            let mut got = vec![0.0f32; m * n];
            kernels::matmul_seq_with(kernel, &a, &b, &mut got, m, k, n);
            let expected = strip_model(kernel, &a, &b, m, k, n);
            assert_eq!(bits(&got), bits(&expected), "{kernel:?} on {m}x{k}x{n}");
        }
        let mut got = vec![0.0f32; m * n];
        kernels::matmul(&a, &b, &mut got, m, k, n, &pool);
        let expected = strip_model(MicroKernel::detect(), &a, &b, m, k, n);
        assert_eq!(bits(&got), bits(&expected), "{m}x{k}x{n}, 8 threads");
    }
}

#[test]
fn one_panel_products_read_b_in_place_with_the_packed_arithmetic() {
    // A B of `k ≤ KC` = 256 rows and `n ≤ NC` = 128 columns is its own one
    // panel, so it is streamed where it lies instead of copied. The tiles
    // see the same panel bytes either way, so what held for a packed panel
    // must hold here: the FMA kernels agree bit for bit, the `m % 4`
    // remainder rows are the reference's bits on every kernel, and 1 and 8
    // threads agree. `m` crosses the 4- and 8-row strips, `k` includes the
    // empty contraction and `KC`, `n` the 16-column boundary and `NC`; the
    // attention shapes (`Q_h·K_hᵀ`, `A·V_h`) are among them, and three taller
    // ones reach the parallel threshold, so 8 threads split them.
    let mut shapes = vec![
        (64usize, 256usize, 128usize),
        (130, 256, 127),
        (203, 192, 64),
    ];
    for m in 4usize..=17 {
        for k in [0usize, 1, 32, 64, 255, 256] {
            shapes.extend([1usize, 15, 16, 32, 33, 64, 127, 128].map(|n| (m, k, n)));
        }
    }
    let kernels_here = supported_kernels("one-panel product");
    let pools = [ParallelPool::new(1), ParallelPool::new(8)];
    let mut rng = TensorRng::new(0x0B1A);
    for (m, k, n) in shapes {
        let shape = format!("{m}x{k}x{n}");
        let (a, b) = (uniform(&mut rng, m * k), uniform(&mut rng, k * n));
        let mut expected = vec![0.0f32; m * n];
        kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
        let lead = (m - m % 4) * n;
        let mut fma: Option<Vec<f32>> = None;
        for &kernel in &kernels_here {
            let mut got = vec![0.0f32; m * n];
            kernels::matmul_seq_with(kernel, &a, &b, &mut got, m, k, n);
            assert_close(&got, &expected, &format!("{kernel:?} on {shape}"));
            assert_eq!(
                bits(&got[lead..]),
                bits(&expected[lead..]),
                "{kernel:?}: remainder rows of {shape}"
            );
            if kernel == MicroKernel::Portable {
                continue;
            }
            match &fma {
                None => fma = Some(got),
                Some(avx2) => assert_eq!(bits(&got), bits(avx2), "{kernel:?} vs AVX2 on {shape}"),
            }
        }
        let mut detected = vec![0.0f32; m * n];
        kernels::matmul_seq_with(MicroKernel::detect(), &a, &b, &mut detected, m, k, n);
        for pool in &pools {
            let mut got = vec![0.0f32; m * n];
            kernels::matmul(&a, &b, &mut got, m, k, n, pool);
            let threads = pool.threads();
            assert_eq!(bits(&got), bits(&detected), "{shape}, {threads} threads");
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

/// The inference layer-norm forward over `x`, one row per call on a 1-thread
/// pool: the per-row reference for the row-chunked runs.
fn layer_norm_row_by_row(x: &[f32], cols: usize, gamma: &[f32], beta: &[f32]) -> Vec<f32> {
    let pool = ParallelPool::new(1);
    let mut out = vec![0.0f32; x.len()];
    for (row, out_row) in x.chunks(cols).zip(out.chunks_mut(cols)) {
        ops::layer_norm_forward_rows(row, cols, gamma, beta, out_row, None, &pool);
    }
    out
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

        let layer_norm = |pool: &ParallelPool| {
            let mut out = vec![0.0f32; base.len()];
            ops::layer_norm_forward_rows(&base, cols, &gamma, &beta, &mut out, None, pool);
            out
        };
        let seq = layer_norm(&seq_pool);
        assert_eq!(
            seq,
            layer_norm(&par_pool),
            "layernorm {rows}x{cols} differs across thread counts"
        );
        let reference = layer_norm_row_by_row(&base, cols, &gamma, &beta);
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
    let reference = layer_norm_row_by_row(x.data(), cols, gamma.data(), beta.data());
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
            let record = Some((x_hat.as_mut_slice(), inv_std.as_mut_slice()));
            ops::layer_norm_forward_rows(&x, cols, &gamma, &beta, &mut out, record, pool);
            (x_hat, out, inv_std)
        };
        let (x_hat, out, inv_std) = run_forward(&seq_pool);
        assert_eq!(
            run_forward(&par_pool),
            (x_hat.clone(), out.clone(), inv_std.clone()),
            "layernorm forward {rows}x{cols} differs across thread counts"
        );
        // Recording changes no output bit: the training forward's output is
        // the inference forward's.
        let reference = layer_norm_row_by_row(&x, cols, &gamma, &beta);
        assert_eq!(out, reference, "layernorm fwd {rows}x{cols}");

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
