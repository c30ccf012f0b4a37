//! Criterion micro-benchmarks of the bytes path: encode and decode cost of
//! f32 / f16 / f16+rle batch frames, on dense (incompressible) and sparse
//! (rle-friendly) feature batches, plus the pieces a 24 KiB round frame
//! (8 × 768 `f32`, the `wire_f32_tcp` workload of the repo benchmark) is
//! priced by — the CRC-32 pass (dispatched, and on the table fallback), the
//! binary16 conversions, its encode and decode, and one send + receive over a
//! loopback TCP lane. The printed preamble reports the encoded sizes,
//! so one run shows bytes-saved next to CPU cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use edvit_edge::wire::{FeatureBatchMessage, PayloadCodec};
use edvit_edge::{LaneEvent, Transport, WireFrame};
use edvit_net::TcpTransport;
use edvit_tensor::init::TensorRng;

/// Paper-scale batch: 8 samples of a 384-dim feature (ViT-Base at s = 1/2).
const SAMPLES: usize = 8;
const DIM: usize = 384;

/// Feature width of the repo benchmark's wire workloads: 8 × 768 `f32`s make
/// the 24 636-byte frame its `edge.frame_bytes` probe reports.
const WIDE_DIM: usize = 768;

/// Dense batch: Gaussian features, essentially incompressible.
fn dense_batch_of(dim: usize) -> FeatureBatchMessage {
    let mut rng = TensorRng::new(7);
    let mut batch = FeatureBatchMessage::new(0, dim);
    for i in 0..SAMPLES {
        batch
            .push_tensor(i, &rng.randn(&[dim], 0.0, 1.0))
            .expect("dims match");
    }
    batch
}

/// Sparse batch: post-ReLU-style features where most values are zero — the
/// low-entropy case the rle codec exists for.
fn sparse_batch() -> FeatureBatchMessage {
    let mut rng = TensorRng::new(11);
    let mut batch = FeatureBatchMessage::new(0, DIM);
    for i in 0..SAMPLES {
        let dense = rng.randn(&[DIM], 0.0, 1.0);
        let sparse: Vec<f32> = dense
            .data()
            .iter()
            .map(|&v| if v > 1.0 { v } else { 0.0 })
            .collect();
        batch.push_feature(i, &sparse).expect("dims match");
    }
    batch
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    let dense = dense_batch_of(DIM);
    for codec in PayloadCodec::ALL {
        group.bench_function(format!("{codec}_{SAMPLES}x{DIM}"), |b| {
            b.iter(|| dense.encode_with(codec));
        });
    }
    let sparse = sparse_batch();
    group.bench_function(format!("f16+rle_sparse_{SAMPLES}x{DIM}"), |b| {
        b.iter(|| sparse.encode_with(PayloadCodec::F16Rle));
    });
    let wide = dense_batch_of(WIDE_DIM);
    group.bench_function(format!("f32_{SAMPLES}x{WIDE_DIM}"), |b| {
        b.iter(|| wide.encode());
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode");
    let dense = dense_batch_of(DIM);
    for codec in PayloadCodec::ALL {
        let encoded = dense.encode_with(codec);
        group.bench_function(format!("{codec}_{SAMPLES}x{DIM}"), |b| {
            b.iter(|| WireFrame::decode(encoded.clone()).expect("frame is well-formed"));
        });
    }
    let encoded = dense_batch_of(WIDE_DIM).encode();
    group.bench_function(format!("f32_{SAMPLES}x{WIDE_DIM}"), |b| {
        b.iter(|| WireFrame::decode(encoded.clone()).expect("frame is well-formed"));
    });
    group.finish();
}

/// The checksum pass alone, over the bytes of one 24 KiB round frame: as
/// `crc32` dispatches it on this machine, and through the table path every
/// machine has. `crc32` runs the tables on any input under 128 bytes, so the
/// second bench walks the same bytes in 112-byte pieces, each piece's start
/// made to wait (through `black_box`) for the checksum before it — the
/// tables are one dependency chain from first byte to last, and independent
/// pieces would overlap and read twice as fast as the real pass.
fn bench_crc32(c: &mut Criterion) {
    let frame = dense_batch_of(WIDE_DIM).encode();
    c.bench_function("crc32/24k", |b| {
        b.iter(|| bytes::crc32(black_box(frame.as_slice())));
    });
    c.bench_function("crc32_tables/24k", |b| {
        b.iter(|| {
            let (mut at, mut sum) = (0usize, 0u32);
            while let Some(piece) = frame.as_slice().get(at..at + 112) {
                sum ^= bytes::crc32(piece);
                at += 112 + (black_box(sum as usize) >> 32);
            }
            sum
        });
    });
}

/// The binary16 conversions alone, over the 6 144 values of one round frame.
fn bench_f16(c: &mut Criterion) {
    let values = dense_batch_of(WIDE_DIM).features;
    let mut bits = vec![0u16; values.len()];
    c.bench_function("f16_encode/6144", |b| {
        b.iter(|| bytes::f32_to_f16_bits_slice(black_box(&values), &mut bits));
    });
    let mut widened = vec![0.0f32; bits.len()];
    c.bench_function("f16_decode/6144", |b| {
        b.iter(|| bytes::f16_bits_to_f32_slice(black_box(&bits), &mut widened));
    });
}

/// One 24 KiB frame through a loopback TCP lane: queue hand-off, the writer
/// thread's vectored write, the buffered read and the envelope strip — no
/// encode or decode.
fn bench_tcp_lane(c: &mut Criterion) {
    let frame = dense_batch_of(WIDE_DIM).encode();
    let mut transport = TcpTransport::bind().expect("loopback listener");
    let (tx, mut rx) = transport.open_lane(0, 4).expect("loopback lane");
    c.bench_function("tcp_lane_frame/24k", |b| {
        b.iter(|| {
            tx.send(frame.clone()).expect("lane is open");
            match rx.recv() {
                LaneEvent::Frame(received) => received,
                other => panic!("expected the frame back, got {other:?}"),
            }
        });
    });
}

fn print_sizes() {
    println!("wire codec sizes ({SAMPLES} samples x {DIM} values per batch frame):");
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "codec", "dense (B)", "sparse (B)", "vs f32"
    );
    let dense = dense_batch_of(DIM);
    let sparse = sparse_batch();
    let f32_len = dense.encode_with(PayloadCodec::F32).len();
    for codec in PayloadCodec::ALL {
        let dense_len = dense.encode_with(codec).len();
        let sparse_len = sparse.encode_with(codec).len();
        println!(
            "{:<12} {:>12} {:>12} {:>7.1}%",
            codec.to_string(),
            dense_len,
            sparse_len,
            100.0 * (1.0 - dense_len as f64 / f32_len as f64)
        );
    }
}

fn wire_codec_benches(c: &mut Criterion) {
    print_sizes();
    bench_encode(c);
    bench_decode(c);
    bench_crc32(c);
    bench_f16(c);
    bench_tcp_lane(c);
}

criterion_group!(benches, wire_codec_benches);
criterion_main!(benches);
