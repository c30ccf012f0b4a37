//! Criterion micro-benchmarks of the hot kernels underlying every experiment:
//! dense matmul, attention forward, KL divergence scoring and softmax.

use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edvit::fusion::{FusionConfig, FusionMlp};
use edvit_nn::{Layer, Linear, MultiHeadSelfAttention};
use edvit_parallel::{with_budget, ParallelPool};
use edvit_tensor::kernels::{self, MicroKernel};
use edvit_tensor::{init::TensorRng, stats, Tensor};
use edvit_vit::{ViTConfig, ViTVariant, VisionTransformer};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    // 1024 is where the row-split parallel path dominates (2^30 MACs, far
    // past the 2^20 threshold): on a multi-core runner it shows the pool's
    // scaling, on a 1-core runner the blocked kernel's single-thread ceiling.
    for &size in &[32usize, 64, 128, 256, 512, 1024] {
        let a = TensorRng::new(0).rand_uniform(&[size, size], -1.0, 1.0);
        let b = TensorRng::new(1).rand_uniform(&[size, size], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| a.matmul(&b).unwrap());
        });
    }
    group.finish();
}

fn bench_matmul_transposed(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_transposed");
    for &size in &[128usize, 256, 512] {
        let a = TensorRng::new(0).rand_uniform(&[size, size], -1.0, 1.0);
        let b = TensorRng::new(1).rand_uniform(&[size, size], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| a.matmul_transposed(&b).unwrap());
        });
    }
    group.finish();
}

fn bench_batch_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_matmul");
    for &(batch, size) in &[(8usize, 64usize), (8, 128)] {
        let a = TensorRng::new(0).rand_uniform(&[batch, size, size], -1.0, 1.0);
        let b = TensorRng::new(1).rand_uniform(&[batch, size, size], -1.0, 1.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{batch}x{size}")),
            &size,
            |bench, _| {
                bench.iter(|| {
                    let mut out = vec![0.0f32; batch * size * size];
                    let (a, b) = (a.data(), b.data());
                    let pool = ParallelPool::global();
                    kernels::batch_matmul(a, b, &mut out, batch, size, size, size, pool);
                    out
                });
            },
        );
    }
    group.finish();
}

fn bench_attention_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("mhsa_forward");
    for &(tokens, dim, heads) in &[(16usize, 64usize, 4usize), (64, 64, 8), (196, 96, 6)] {
        let mut rng = TensorRng::new(2);
        let mut mhsa = MultiHeadSelfAttention::new(dim, heads, dim / heads, &mut rng).unwrap();
        let x = rng.randn(&[tokens, dim], 0.0, 1.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{tokens}tok_{dim}d_{heads}h")),
            &tokens,
            |bench, _| bench.iter(|| mhsa.forward(&x).unwrap()),
        );
    }
    // A batched input exercises the per-sample loop on top of the per-head one.
    let mut rng = TensorRng::new(2);
    let mut mhsa = MultiHeadSelfAttention::new(96, 6, 16, &mut rng).unwrap();
    let x = rng.randn(&[8, 64, 96], 0.0, 1.0);
    group.bench_with_input(
        BenchmarkId::from_parameter("8x64tok_96d_6h"),
        &8usize,
        |bench, _| bench.iter(|| mhsa.forward(&x).unwrap()),
    );
    group.finish();
}

fn bench_softmax_and_kl(c: &mut Criterion) {
    let logits = TensorRng::new(3).randn(&[256, 257], 0.0, 2.0);
    c.bench_function("softmax_256x257", |b| {
        b.iter(|| logits.softmax_last_axis().unwrap());
    });
    let p = TensorRng::new(4).rand_uniform(&[256, 10], 0.01, 1.0);
    let q = TensorRng::new(5).rand_uniform(&[256, 10], 0.01, 1.0);
    c.bench_function("batch_kl_256x10", |b| {
        b.iter(|| stats::batch_kl_divergence(&p, &q).unwrap());
    });
}

fn bench_layernorm(c: &mut Criterion) {
    let x = TensorRng::new(6).randn(&[196, 768], 0.0, 1.0);
    let gamma = Tensor::ones(&[768]);
    let beta = Tensor::zeros(&[768]);
    c.bench_function("layernorm_196x768", |b| {
        b.iter(|| x.layer_norm_last_axis(&gamma, &beta).unwrap());
    });
}

fn bench_gelu(c: &mut Criterion) {
    // The ViT-Base MLP activation shape: 196 tokens × 3072 hidden units —
    // large enough to cross the row-op parallel threshold.
    let x = TensorRng::new(7).randn(&[196, 3072], 0.0, 1.0);
    c.bench_function("gelu_196x3072", |b| b.iter(|| x.gelu()));
}

fn bench_pool_dispatch(c: &mut Criterion) {
    // Round trip of an otherwise empty two-chunk region on the global pool
    // in which each chunk waits for the other to start, so a worker really
    // has to wake up and claim one: publish, futex wake, claim, join. This
    // is the latency every parallel kernel region pays before it gets any
    // help, and what `PAR_WORK_THRESHOLD` / `PAR_ELEMS_THRESHOLD` in
    // edvit-tensor are sized against. (A one-thread pool runs the range
    // inline as a single chunk; the number is then the inline overhead.)
    let pool = ParallelPool::global();
    let handshake = !pool.is_sequential();
    let arrived = AtomicUsize::new(0);
    c.bench_function("pool_dispatch", |b| {
        b.iter(|| {
            arrived.store(0, Ordering::SeqCst);
            pool.for_each_range(0..2, 1, |_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while handshake && arrived.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
            });
        });
    });
}

/// The forward path of the repo benchmark's probe model (depth 4, width 192,
/// 6 heads, 64 tokens), layer by layer and under budget 1 — inline on the
/// calling thread, as each device thread of a two-device run executes it.
/// `PAR_WORK_THRESHOLD` in edvit-tensor quotes `matmul_64x192x768_seq`; the
/// per-ISA entries are the same-session comparison of the micro-kernels.
fn bench_probe_forward_path(c: &mut Criterion) {
    let (tokens, width, hidden, heads) = (64usize, 192usize, 768usize, 6usize);
    let mut rng = TensorRng::new(8);
    let x = rng.randn(&[tokens, width], 0.0, 1.0);
    let w = rng.randn(&[width, hidden], 0.0, 0.02);

    let mut group = c.benchmark_group("matmul_64x192x768_seq");
    for kernel in [
        MicroKernel::Portable,
        MicroKernel::Avx2Fma,
        MicroKernel::Avx512,
    ] {
        if !kernel.is_supported() {
            println!("matmul_64x192x768_seq/{kernel:?}: skipped, CPU lacks the features");
            continue;
        }
        let mut out = vec![0.0f32; tokens * hidden];
        group.bench_function(format!("{kernel:?}"), |bench| {
            bench.iter(|| {
                out.fill(0.0);
                kernels::matmul_seq_with(
                    kernel,
                    x.data(),
                    w.data(),
                    &mut out,
                    tokens,
                    width,
                    hidden,
                );
            });
        });
    }
    group.finish();

    let mut linear = Linear::new(width, hidden, &mut rng);
    c.bench_function("linear_forward_64x192x768", |bench| {
        bench.iter(|| with_budget(1, || linear.forward(&x).unwrap()));
    });

    let mut mhsa = MultiHeadSelfAttention::new(width, heads, width / heads, &mut rng).unwrap();
    let batch = rng.randn(&[1, tokens, width], 0.0, 1.0);
    c.bench_function("mhsa_forward_64x192", |bench| {
        bench.iter(|| with_budget(1, || mhsa.forward(&batch).unwrap()));
    });

    let config = ViTConfig {
        variant: ViTVariant::Small,
        depth: 4,
        embed_dim: width,
        heads,
        mlp_ratio: 4,
        patch_size: 8,
        image_size: 64,
        channels: 3,
        num_classes: 10,
    };
    let mut model = VisionTransformer::new(&config, &mut rng).unwrap();
    let image = rng.randn(&[1, 3, 64, 64], 0.0, 1.0);
    c.bench_function("vit_forward_probe", |bench| {
        bench.iter(|| with_budget(1, || model.forward_features(&image).unwrap()));
    });
}

/// The products of one fusion call on the serving shape (768 → 384 → 10) by
/// row count: fewer than `MR` = 4 rows run unpacked over B where it lies, 4
/// and up pack panels for the register tiles — so the cliff between 3 and 4
/// rows is a number anyone can re-read. The reference triple loop and a whole
/// `FusionMlp::predict_logits` (two products, GELU, the allocations) sit
/// beside the one-row entry.
fn bench_thin_matmul(c: &mut Criterion) {
    let (k, n) = (768usize, 384usize);
    let mut rng = TensorRng::new(9);
    let w = rng.randn(&[k, n], 0.0, 0.02);
    let bias = rng.randn(&[n], 0.0, 0.02);
    let pool = ParallelPool::global();

    let mut group = c.benchmark_group("matmul_thin_768x384");
    for rows in [1usize, 2, 3, 4, 5, 8] {
        let x = rng.randn(&[rows, k], 0.0, 1.0);
        let mut out = vec![0.0f32; rows * n];
        group.bench_function(rows, |bench| {
            bench.iter(|| {
                out.fill(0.0);
                let bias = Some(bias.data());
                kernels::matmul_bias(x.data(), w.data(), bias, &mut out, rows, k, n, pool);
            });
        });
    }
    group.finish();

    let x = rng.randn(&[1, k], 0.0, 1.0);
    let mut out = vec![0.0f32; n];
    c.bench_function("matmul_reference_1x768x384", |bench| {
        bench.iter(|| kernels::matmul_reference(x.data(), w.data(), &mut out, 1, k, n));
    });

    let mut fusion = FusionMlp::new(&FusionConfig::new(k, 10), &mut rng).unwrap();
    c.bench_function("fusion_predict_1x768x384x10", |bench| {
        bench.iter(|| fusion.predict_logits(&x).unwrap());
    });
}

criterion_group!(
    kernels,
    bench_pool_dispatch,
    bench_probe_forward_path,
    bench_thin_matmul,
    bench_matmul,
    bench_matmul_transposed,
    bench_batch_matmul,
    bench_attention_forward,
    bench_softmax_and_kl,
    bench_layernorm,
    bench_gelu
);
criterion_main!(kernels);
