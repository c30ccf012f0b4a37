//! Low-level blocked, register-tiled, thread-parallel matmul kernels.
//!
//! These operate on raw row-major `f32` slices; the [`crate::Tensor`] methods
//! in [`crate::linalg`] do the shape checking and call in here. The functions
//! are public (and pool-parameterized) so property tests can pit explicit
//! 1-thread and N-thread pools against each other and against the naive
//! reference implementation.
//!
//! # Kernel design
//!
//! `matmul` uses the classic GEBP blocking scheme, sized for edge-class CPUs:
//!
//! * **Column panels** — B is packed into contiguous `KC × NC` panels
//!   (`256 × 128` floats = 128 KiB, sized to sit in L2) so the innermost loop
//!   streams one dense panel instead of striding through all of B.
//! * **Register tiling** — output rows are processed [`MR`] (= 4) at a time
//!   against 8- or 16-wide column tiles whose partial sums live entirely in
//!   registers; each packed B row is loaded once per 4 output rows. On
//!   x86-64 with AVX2+FMA (runtime-detected) the micro-kernel uses eight
//!   `ymm` accumulators and fused multiply-adds; elsewhere a portable
//!   unrolled variant is written so LLVM auto-vectorizes it.
//! * **Row-range parallelism** — from [`PAR_WORK_THRESHOLD`] multiply-adds up,
//!   the output rows are split across the [`ParallelPool`]: each thread runs
//!   the sequential blocked kernel on a disjoint strip of rows, claiming
//!   strips from a shared counter so uneven strips self-balance.
//!
//! Every output element is accumulated in the exact same floating-point
//! order no matter how many threads participate (each row is owned by exactly
//! one thread and the block loop order is fixed), so results are bit-identical
//! across `EDVIT_THREADS` settings.

use edvit_parallel::ParallelPool;

/// Register-tile height: output rows processed together by the micro-kernel.
pub const MR: usize = 4;
/// Packed B panel width (columns per panel).
const NC: usize = 128;
/// Packed B panel depth (k entries per panel).
const KC: usize = 256;
/// Multiply-add count (`m·k·n`) from which a matmul is split across threads.
///
/// Sized from measurement, not taste: a region gets no help before a worker
/// has woken up, and `pool_dispatch` (`cargo bench -p edvit-bench --bench
/// kernels`: publish → futex wake → claim → join of a two-chunk region) is
/// ~17 µs on the 2-vCPU Xeon @ 2.1 GHz reference box, where the blocked
/// kernel sustains ~35 GMAC/s on one thread. 2²¹ multiply-adds are ~60 µs
/// of sequential work — three to four dispatch latencies — so the smallest
/// region that goes parallel can still win back more than it pays. (The
/// previous 2²⁰ was under two latencies: a net loss on two cores.)
pub const PAR_WORK_THRESHOLD: usize = 1 << 21;
/// Target multiply-adds per parallel chunk, so chunks stay coarse enough to
/// amortize the claim/wake overhead.
const PAR_CHUNK_WORK: usize = 1 << 18;

/// Naive triple-loop reference matmul (`out = A·B`), kept as the ground truth
/// for property tests. `out` must be zero-filled, of length `m·n`.
pub fn matmul_reference(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Blocked, register-tiled, parallel `out = A·B` over row-major slices.
///
/// `a` is `[m, k]`, `b` is `[k, n]`, `out` is `[m, n]` and must be
/// zero-filled by the caller.
pub fn matmul(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    pool: &ParallelPool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let work = m * k * n;
    if work < PAR_WORK_THRESHOLD || pool.is_sequential() || m < 2 {
        matmul_seq(a, b, out, m, k, n);
        return;
    }
    let rows_per_chunk = chunk_rows(m, k * n, pool);
    pool.scope_chunks(out, rows_per_chunk * n, |base, out_chunk| {
        let row0 = base / n;
        let rows = out_chunk.len() / n;
        matmul_seq(&a[row0 * k..(row0 + rows) * k], b, out_chunk, rows, k, n);
    });
}

/// Sequential blocked matmul over all `m` rows (the per-chunk body of
/// [`matmul`]). `out` must be zero-filled.
///
/// Each call packs its own panels of B, one `kc × nc` panel at a time into a
/// scratch it allocates. Both were measured against the alternatives on the
/// `[64,192]×[192,768]` product, two threads: packing B once per call into a
/// buffer all row chunks share is *slower* (330 µs with recycled buffers,
/// 500 µs with fresh ones, against 245 µs) because a panel packed by one core
/// is no longer in the L2 of the core that streams it and because a
/// `k·n`-float allocation per call makes glibc trim and re-fault the heap;
/// a thread-local scratch added ~1 MiB (+15 %) to the peak RSS of runs that
/// spawn short-lived device threads for a saving no timing could resolve.
/// What redundancy there is, is bounded by `chunk_rows` instead.
pub fn matmul_seq(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mut panel = Vec::with_capacity(KC.min(k) * NC.min(n));
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack B[pc..pc+kc, jc..jc+nc] into a contiguous kc×nc panel.
            panel.clear();
            for p in pc..pc + kc {
                panel.extend_from_slice(&b[p * n + jc..][..nc]);
            }
            accumulate_panel(a, &panel, out, k, n, (jc, nc), (pc, kc));
        }
    }
}

/// `out[.., jc..jc+nc] += a[.., pc..pc+kc] · panel` for every row of `a`
/// (`out.len() / n` of them), [`MR`] rows at a time.
fn accumulate_panel(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    (jc, nc): (usize, usize),
    (pc, kc): (usize, usize),
) {
    let a_strips = a.chunks(MR * k);
    for (a_strip, out_strip) in a_strips.zip(out.chunks_mut(MR * n)) {
        if out_strip.len() == MR * n {
            let (r0, rest) = out_strip.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            micro_tile_4_dispatch(
                &a_strip[pc..pc + kc],
                &a_strip[k + pc..k + pc + kc],
                &a_strip[2 * k + pc..2 * k + pc + kc],
                &a_strip[3 * k + pc..3 * k + pc + kc],
                panel,
                nc,
                &mut r0[jc..jc + nc],
                &mut r1[jc..jc + nc],
                &mut r2[jc..jc + nc],
                &mut r3[jc..jc + nc],
            );
        } else {
            for (a_row, row) in a_strip.chunks(k).zip(out_strip.chunks_mut(n)) {
                micro_tile_1(&a_row[pc..pc + kc], panel, nc, &mut row[jc..jc + nc]);
            }
        }
    }
}

/// Register-tile width: output columns accumulated in registers per j-tile.
const NR: usize = 8;

/// Dispatches the 4-row micro-kernel: the AVX2+FMA variant when the CPU has
/// it (runtime-detected, cached by `is_x86_feature_detected!`), the portable
/// auto-vectorized variant otherwise. Both accumulate each output element in
/// the same p-order, so cross-variant differences stay within FMA rounding.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_tile_4_dispatch(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
    nc: usize,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the required CPU features were just detected.
            unsafe {
                return micro_tile_4_fma(a0, a1, a2, a3, panel, nc, o0, o1, o2, o3);
            }
        }
    }
    micro_tile_4(a0, a1, a2, a3, panel, nc, o0, o1, o2, o3);
}

/// AVX2+FMA 4×16 micro-kernel: eight `ymm` accumulators (4 rows × 16
/// columns) updated with two fused multiply-adds per packed panel row, per
/// row of A. Columns past the last 16-wide tile fall through to the portable
/// kernel.
///
/// # Safety
///
/// The caller must guarantee that (a) the `avx2` and `fma` CPU features are
/// present (the only call site dispatches through
/// `is_x86_feature_detected!`), and (b) `a1`, `a2`, `a3` are at least
/// `a0.len()` elements long and `panel.len() >= a0.len() * nc`, and each
/// output row holds at least `nc` elements — the body reads `a*` with
/// `get_unchecked(p)` for `p < a0.len()` and does unaligned 8-float
/// loads/stores at `panel[p*nc + j..]` / `o*[j..j+16]` for `j + 16 <= nc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_tile_4_fma(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
    nc: usize,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    const TILE: usize = 16;
    let kc = a0.len();
    let mut j = 0;
    while j + TILE <= nc {
        // SAFETY: loop guard gives `j + 16 <= nc`, so the two 8-float
        // unaligned loads/stores per row stay inside `panel[p*nc..(p+1)*nc]`
        // and `o*[..nc]`; `p < kc = a0.len()` bounds every
        // `get_unchecked(p)` (caller contract: `a1..a3` are `kc` long).
        unsafe {
            let (mut c00, mut c01) = (_mm256_setzero_ps(), _mm256_setzero_ps());
            let (mut c10, mut c11) = (_mm256_setzero_ps(), _mm256_setzero_ps());
            let (mut c20, mut c21) = (_mm256_setzero_ps(), _mm256_setzero_ps());
            let (mut c30, mut c31) = (_mm256_setzero_ps(), _mm256_setzero_ps());
            for p in 0..kc {
                let bp = panel.as_ptr().add(p * nc + j);
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                let x0 = _mm256_set1_ps(*a0.get_unchecked(p));
                c00 = _mm256_fmadd_ps(x0, b0, c00);
                c01 = _mm256_fmadd_ps(x0, b1, c01);
                let x1 = _mm256_set1_ps(*a1.get_unchecked(p));
                c10 = _mm256_fmadd_ps(x1, b0, c10);
                c11 = _mm256_fmadd_ps(x1, b1, c11);
                let x2 = _mm256_set1_ps(*a2.get_unchecked(p));
                c20 = _mm256_fmadd_ps(x2, b0, c20);
                c21 = _mm256_fmadd_ps(x2, b1, c21);
                let x3 = _mm256_set1_ps(*a3.get_unchecked(p));
                c30 = _mm256_fmadd_ps(x3, b0, c30);
                c31 = _mm256_fmadd_ps(x3, b1, c31);
            }
            let flush = |o: &mut [f32], lo, hi| {
                let p = o.as_mut_ptr().add(j);
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), lo));
                _mm256_storeu_ps(p.add(8), _mm256_add_ps(_mm256_loadu_ps(p.add(8)), hi));
            };
            flush(o0, c00, c01);
            flush(o1, c10, c11);
            flush(o2, c20, c21);
            flush(o3, c30, c31);
        }
        j += TILE;
    }
    if j < nc {
        // Column remainder (< 16): reuse the portable kernel on the tail by
        // viewing the panel rows from column `j` onward. Cheapest done
        // scalar: the tail is at most 15 columns of the last panel.
        for p in 0..kc {
            let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
            let brow = &panel[p * nc..(p + 1) * nc];
            for l in j..nc {
                o0[l] += x0 * brow[l];
                o1[l] += x1 * brow[l];
                o2[l] += x2 * brow[l];
                o3[l] += x3 * brow[l];
            }
        }
    }
}

/// The 4×8 register micro-kernel: for each 8-column tile of the packed
/// panel, all `kc` rank-1 updates are accumulated into 32 stack scalars
/// (which LLVM keeps in vector registers), then flushed to the four output
/// rows once. The innermost loop does 32 multiply-adds per 12 loads and no
/// stores — the arithmetic-to-memory ratio the axpy formulation lacks.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_tile_4(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
    nc: usize,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let kc = a0.len();
    // Re-slice to common lengths so LLVM drops the inner bounds checks.
    let (a0, a1, a2, a3) = (&a0[..kc], &a1[..kc], &a2[..kc], &a3[..kc]);
    let (o0, o1, o2, o3) = (&mut o0[..nc], &mut o1[..nc], &mut o2[..nc], &mut o3[..nc]);
    let mut j = 0;
    while j + NR <= nc {
        let mut c0 = [0.0f32; NR];
        let mut c1 = [0.0f32; NR];
        let mut c2 = [0.0f32; NR];
        let mut c3 = [0.0f32; NR];
        for p in 0..kc {
            let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
            let brow = &panel[p * nc + j..p * nc + j + NR];
            for l in 0..NR {
                c0[l] += x0 * brow[l];
                c1[l] += x1 * brow[l];
                c2[l] += x2 * brow[l];
                c3[l] += x3 * brow[l];
            }
        }
        for l in 0..NR {
            o0[j + l] += c0[l];
            o1[j + l] += c1[l];
            o2[j + l] += c2[l];
            o3[j + l] += c3[l];
        }
        j += NR;
    }
    // Column remainder (nc % 8): plain 4-row axpy.
    if j < nc {
        for p in 0..kc {
            let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
            let brow = &panel[p * nc..(p + 1) * nc];
            for l in j..nc {
                o0[l] += x0 * brow[l];
                o1[l] += x1 * brow[l];
                o2[l] += x2 * brow[l];
                o3[l] += x3 * brow[l];
            }
        }
    }
}

/// Single-row micro-kernel for the `m % 4` remainder rows.
#[inline]
fn micro_tile_1(a_row: &[f32], panel: &[f32], nc: usize, o: &mut [f32]) {
    let kc = a_row.len();
    let o = &mut o[..nc];
    for p in 0..kc {
        let x = a_row[p];
        let brow = &panel[p * nc..p * nc + nc];
        for j in 0..nc {
            o[j] += x * brow[j];
        }
    }
}

/// Parallel `out = A·Bᵀ` (`a` is `[m, k]`, `b` is `[n, k]`): rows of `a`
/// against rows of `b`, i.e. the attention `Q·Kᵀ` layout. `out` may hold
/// arbitrary values on entry; every element is overwritten.
pub fn matmul_transposed(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    pool: &ParallelPool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let work = m * k * n;
    if work < PAR_WORK_THRESHOLD || pool.is_sequential() || m < 2 {
        matmul_transposed_seq(a, b, out, k, n);
        return;
    }
    let rows_per_chunk = chunk_rows(m, k * n, pool);
    pool.scope_chunks(out, rows_per_chunk * n, |base, out_chunk| {
        let row0 = base / n;
        let rows = out_chunk.len() / n;
        matmul_transposed_seq(&a[row0 * k..(row0 + rows) * k], b, out_chunk, k, n);
    });
}

/// Sequential body of [`matmul_transposed`]: `a` holds `out.len() / n` rows.
pub fn matmul_transposed_seq(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (o, brow) in orow.iter_mut().zip(b.chunks_exact(k)) {
            *o = dot(arow, brow);
        }
    }
}

/// Batched parallel matmul: `bt` independent `[m, k]·[k, n]` products.
/// `out` must be zero-filled, of length `bt·m·n`.
#[allow(clippy::too_many_arguments)]
pub fn batch_matmul(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    pool: &ParallelPool,
) {
    debug_assert_eq!(out.len(), bt * m * n);
    if bt == 0 || m * n == 0 || k == 0 {
        return;
    }
    let per_batch = m * k * n;
    if per_batch >= PAR_WORK_THRESHOLD {
        // Few large products: parallelize inside each one.
        for bi in 0..bt {
            matmul(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
                pool,
            );
        }
    } else if bt * per_batch >= PAR_WORK_THRESHOLD && !pool.is_sequential() {
        // Many small products: one batch (or a run of batches) per chunk.
        let batches_per_chunk = (PAR_CHUNK_WORK / per_batch).clamp(1, bt.div_ceil(pool.threads()));
        pool.scope_chunks(out, batches_per_chunk * m * n, |base, out_chunk| {
            let b0 = base / (m * n);
            let batches = out_chunk.len() / (m * n);
            for (ci, out_one) in out_chunk.chunks_exact_mut(m * n).enumerate() {
                let bi = b0 + ci;
                debug_assert!(ci < batches);
                matmul_seq(
                    &a[bi * m * k..(bi + 1) * m * k],
                    &b[bi * k * n..(bi + 1) * k * n],
                    out_one,
                    m,
                    k,
                    n,
                );
            }
        });
    } else {
        for bi in 0..bt {
            matmul_seq(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }
}

/// Dot product over equal-length slices, dispatching to the AVX2+FMA variant
/// on CPUs that have it.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if a.len() >= 16
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the required CPU features were just detected.
            return unsafe { dot_fma(a, b) };
        }
    }
    dot_portable(a, b)
}

/// Bounds-check-free dot product with four independent accumulators (breaks
/// the FP dependency chain so LLVM vectorizes it).
#[inline]
fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        acc[0] += xa[0] * xb[0];
        acc[1] += xa[1] * xb[1];
        acc[2] += xa[2] * xb[2];
        acc[3] += xa[3] * xb[3];
    }
    let tail: f32 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| x * y)
        .sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// AVX2+FMA dot product: four 8-wide accumulators, horizontally reduced once.
///
/// # Safety
///
/// The caller must guarantee the `avx2` and `fma` CPU features are present;
/// the only call site dispatches through `is_x86_feature_detected!`. All
/// memory accesses are bounded by `len = min(a.len(), b.len())` below, so no
/// further caller obligation exists.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps,
        _mm256_loadu_ps, _mm256_setzero_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_movehdup_ps,
        _mm_movehl_ps,
    };
    let len = a.len().min(b.len());
    let mut acc = [_mm256_setzero_ps(); 4];
    let mut i = 0;
    // SAFETY: every unaligned 8-float load starts at `i + 8*l` with
    // `i + 32 <= len` (first loop) or `i + 8 <= len` (second), so reads end
    // at or before `len <= a.len(), b.len()`; the intrinsics themselves are
    // available per this fn's `target_feature` contract.
    unsafe {
        while i + 32 <= len {
            for (l, slot) in acc.iter_mut().enumerate() {
                *slot = _mm256_fmadd_ps(
                    _mm256_loadu_ps(a.as_ptr().add(i + 8 * l)),
                    _mm256_loadu_ps(b.as_ptr().add(i + 8 * l)),
                    *slot,
                );
            }
            i += 32;
        }
        while i + 8 <= len {
            acc[0] = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
                acc[0],
            );
            i += 8;
        }
        let sum256 = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let sum128 = _mm_add_ps(
            _mm256_castps256_ps128(sum256),
            _mm256_extractf128_ps(sum256, 1),
        );
        let sum64 = _mm_add_ps(sum128, _mm_movehl_ps(sum128, sum128));
        let sum32 = _mm_add_ss(sum64, _mm_movehdup_ps(sum64));
        let mut total = _mm_cvtss_f32(sum32);
        for l in i..len {
            total += a[l] * b[l];
        }
        total
    }
}

/// Rows per parallel chunk: coarse enough that one chunk carries at least
/// [`PAR_CHUNK_WORK`] multiply-adds, fine enough that every thread gets two
/// (one to start on, one to balance a worker that woke up late — every chunk
/// re-packs B for its own L2, so four per thread cost 245 µs against 200 µs
/// on the two-thread `[64,192]×[192,768]` product, and one per thread gained
/// nothing in the median but lost the tail), and always a multiple of [`MR`] so chunk boundaries fall exactly on the
/// sequential kernel's 4-row strip boundaries — which keeps every row's
/// micro-kernel (and therefore its floating-point rounding) identical no
/// matter how many threads split the work.
fn chunk_rows(m: usize, work_per_row: usize, pool: &ParallelPool) -> usize {
    let min_rows = (PAR_CHUNK_WORK / work_per_row.max(1)).max(MR);
    let fair_rows = m.div_ceil(pool.threads() * 2);
    min_rows.max(fair_rows).min(m).next_multiple_of(MR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::TensorRng;

    fn random(len: usize, seed: u64) -> Vec<f32> {
        TensorRng::new(seed)
            .rand_uniform(&[len.max(1)], -1.0, 1.0)
            .data()[..len]
            .to_vec()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-4, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_reference_across_shapes() {
        let pool = ParallelPool::new(4);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 4, 4),
            (5, 129, 131),
            (130, 300, 17),
            (64, 64, 64),
        ] {
            let a = random(m * k, 1);
            let b = random(k * n, 2);
            let mut expected = vec![0.0f32; m * n];
            matmul_reference(&a, &b, &mut expected, m, k, n);
            let mut got = vec![0.0f32; m * n];
            matmul(&a, &b, &mut got, m, k, n, &pool);
            assert_close(&got, &expected);
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let pool = ParallelPool::new(2);
        let b = random(6, 9);
        let mut out: Vec<f32> = Vec::new();
        matmul(&[], &b, &mut out, 0, 3, 2, &pool);
        matmul_transposed(&[], &b, &mut out, 0, 3, 2, &pool);
        batch_matmul(&[], &[], &mut out, 0, 2, 2, 2, &pool);
        // k == 0 leaves the zero-filled output untouched.
        let mut out = vec![0.0f32; 4];
        matmul(&[], &[], &mut out, 2, 0, 2, &pool);
        assert_eq!(out, vec![0.0; 4]);
        // n == 0 produces an empty output.
        let a = random(6, 10);
        let mut out: Vec<f32> = Vec::new();
        matmul(&a, &[], &mut out, 2, 3, 0, &pool);
        matmul_transposed(&a, &[], &mut out, 2, 3, 0, &pool);
    }

    #[test]
    fn transposed_matches_reference() {
        let pool = ParallelPool::new(4);
        let (m, k, n) = (33, 47, 29);
        let a = random(m * k, 3);
        let bt = random(n * k, 4);
        // Reference: materialize B from Bᵀ.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut expected = vec![0.0f32; m * n];
        matmul_reference(&a, &b, &mut expected, m, k, n);
        let mut got = vec![0.0f32; m * n];
        matmul_transposed(&a, &bt, &mut got, m, k, n, &pool);
        assert_close(&got, &expected);
    }

    #[test]
    fn batch_matches_per_batch() {
        let pool = ParallelPool::new(4);
        let (bt, m, k, n) = (5, 9, 11, 13);
        let a = random(bt * m * k, 5);
        let b = random(bt * k * n, 6);
        let mut got = vec![0.0f32; bt * m * n];
        batch_matmul(&a, &b, &mut got, bt, m, k, n, &pool);
        for bi in 0..bt {
            let mut expected = vec![0.0f32; m * n];
            matmul_reference(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut expected,
                m,
                k,
                n,
            );
            assert_close(&got[bi * m * n..(bi + 1) * m * n], &expected);
        }
    }

    #[test]
    fn dot_matches_naive() {
        let a = random(101, 7);
        let b = random(101, 8);
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
