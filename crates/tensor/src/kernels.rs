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
//!   streams one dense panel instead of striding through all of B. A panel
//!   is packed only when more than one row strip will read it: a product of
//!   fewer than [`MR`] rows (every `[1,k]×[k,n]` fusion call and
//!   single-image head) allocates no scratch, packs nothing and reads B once
//!   where it lies.
//! * **Register tiling** — a strip of output rows is accumulated against a
//!   tile of panel columns whose partial sums live entirely in registers, so
//!   each packed B row is loaded once per strip. The tile is picked at run
//!   time ([`MicroKernel::detect`], no option selects it):
//!
//!   | CPU has | rows × columns | accumulators | column steps |
//!   |---|---|---|---|
//!   | `avx512f` (x86-64) | 8 × 32 | 16 `zmm` | 32, then one 16, then scalar |
//!   | `avx2` + `fma` (x86-64) | 4 × 16 | 8 `ymm` | 16, then scalar |
//!   | anything else | 4 × 8 | 32 scalars LLVM vectorizes | 8, then scalar |
//!   | fewer than [`MR`] rows, any CPU | 1–3 × `n`, unpacked | none: one axpy per row of B into the output rows | whole rows, auto-vectorized at the CPU's width (`zmm`, `ymm`, baseline) |
//!
//!   Rows left over after the 8-row strips take the 4 × 16 tile, rows left
//!   over after the 4-row strips ([`MR`]) take a one-row axpy kernel over the
//!   panels the strips before them packed.
//!   *Why 8 rows:* on `[64,192]×[192,768]`, one thread, the 4 × 16 `ymm`
//!   tile reads 200–375 µs; a 4 × 32 `zmm` tile does 8 FMAs per 128 B of
//!   panel, is bound by L2 → L1 traffic and read 191–271 µs (≈ 1.2×); 8 × 32
//!   halves the bytes per FMA and read 141–208 µs in the same alternating
//!   runs (`matmul_64x192x768_seq/*` in `cargo bench -p edvit-bench --bench
//!   kernels` times every kernel the CPU has on one input).
//! * **Row-range parallelism** — from [`PAR_WORK_THRESHOLD`] multiply-adds up,
//!   the output rows are split across the [`ParallelPool`]: each thread runs
//!   the sequential blocked kernel on a disjoint strip of rows, claiming
//!   strips from a shared counter so uneven strips self-balance.
//! * **Bias epilogue** — [`matmul_bias`] adds a length-`n` bias to each
//!   column panel right after the panel's last k-block, per row chunk and
//!   inside the parallel region, so a linear layer is one pass over one
//!   output buffer.
//!
//! # Bit-identity
//!
//! Every output element is accumulated in the exact same floating-point
//! order no matter how many threads participate (each row is owned by exactly
//! one thread and the block loop order is fixed), so results are bit-identical
//! across `EDVIT_THREADS` settings.
//!
//! The two FMA kernels are also bit-identical *to each other*, on every
//! shape: in both, an element left of column `nc − nc % 16` of its panel is
//! `kc` sequential fused multiply-adds from zero and one flush add per
//! k-block, an element right of that boundary is `kc` unfused multiply-adds
//! straight into the output, and rows from `m − m % 4` on take the one-row
//! kernel. Which tile (8 × 32, 8 × 16, 4 × 16) computes an element changes
//! how many neighbours share its loads, never its arithmetic. A new tile must
//! keep the 16-column boundary and the 4-row one;
//! `tests/parallel_kernels.rs` compares the kernels bit for bit. The
//! portable kernel does not fuse and differs from both by rounding only.
//!
//! Products of fewer than [`MR`] rows and the `m % 4` remainder rows are
//! unfused on *every* kernel — `k` multiply-adds in ascending `p` from `+0.0`,
//! then the bias — so there even `Portable` agrees bit for bit with the FMA
//! kernels, and all three with [`matmul_reference`]. That is also why a
//! parallel chunk that ends up with fewer than [`MR`] rows may take the
//! unpacked path: sequentially those rows are remainder rows, same bits.

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
/// has woken up, so the smallest region that goes parallel should carry at
/// least three `pool_dispatch` latencies (publish → futex wake → claim →
/// join of a two-chunk region) of sequential work. Re-measured with the
/// AVX-512 tile (`cargo bench -p edvit-bench --bench kernels`, 2-vCPU Xeon
/// @ 2.1 GHz, `avx512f`, one session): `matmul_64x192x768_seq/Avx512`
/// 141–208 µs (45–67 GMAC/s; `Avx2Fma` 200–375 µs), `pool_dispatch` 4 µs
/// while the host was quiet and 14–24 µs while it was not. 2²¹ multiply-adds
/// are then 31–46 µs: eight dispatch latencies on the quiet box, and still
/// about three when the neighbours are loud, because the kernel slows down
/// with the wake-up. The threshold stays. (It was 2²⁰ before PR 12 — under
/// two latencies at the AVX2 kernel's ~35 GMAC/s and a 17 µs dispatch.)
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

/// Which register-tile implementation the blocked matmul runs on. Chosen by
/// [`MicroKernel::detect`] everywhere except the cross-ISA conformance test,
/// which forces each one through [`matmul_seq_with`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroKernel {
    /// 4×8 tiles of unfused multiply-adds, auto-vectorized by LLVM.
    Portable,
    /// 4×16 tiles in eight `ymm` accumulators (x86-64 `avx2` + `fma`).
    Avx2Fma,
    /// 8×32 tiles in sixteen `zmm` accumulators (x86-64 `avx512f`); leftover
    /// 4-row strips run the [`MicroKernel::Avx2Fma`] tile.
    Avx512,
}

impl MicroKernel {
    /// The widest kernel this CPU runs: `avx512f` → `avx2`+`fma` → portable
    /// (`is_x86_feature_detected!` caches, so this is a few atomic loads).
    pub fn detect() -> MicroKernel {
        [MicroKernel::Avx512, MicroKernel::Avx2Fma]
            .into_iter()
            .find(|kernel| kernel.is_supported())
            .unwrap_or(MicroKernel::Portable)
    }

    /// Whether this CPU has the features the kernel's intrinsics need.
    pub fn is_supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2_fma = || {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            };
            match self {
                MicroKernel::Portable => true,
                MicroKernel::Avx2Fma => avx2_fma(),
                MicroKernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f") && avx2_fma(),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == MicroKernel::Portable
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
    matmul_bias(a, b, None, out, m, k, n, pool);
}

/// [`matmul`] with an optional bias epilogue: `out = A·B + bias`, `bias` of
/// length `n` added to every row. Each row chunk adds it to a column panel
/// right after that panel's last k-block, while the panel is still in cache
/// and inside the parallel region; every element is `(Σ) + b`, the bits of
/// `matmul` followed by a separate row-broadcast add.
#[allow(clippy::too_many_arguments)]
pub fn matmul_bias(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    pool: &ParallelPool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    assert!(bias.is_none_or(|bias| bias.len() == n), "bias length != n");
    if m == 0 || n == 0 {
        return;
    }
    let kernel = MicroKernel::detect();
    let work = m * k * n;
    if work < PAR_WORK_THRESHOLD || pool.is_sequential() || m < 2 {
        gebp(kernel, a, b, bias, out, k, n);
        return;
    }
    let rows_per_chunk = chunk_rows(m, k * n, pool);
    pool.scope_chunks(out, rows_per_chunk * n, |base, out_chunk| {
        let row0 = base / n;
        let rows = out_chunk.len() / n;
        let a_rows = &a[row0 * k..(row0 + rows) * k];
        gebp(kernel, a_rows, b, bias, out_chunk, k, n);
    });
}

/// The sequential blocked matmul over all `m` rows (the per-chunk body of
/// [`matmul`]) on a named micro-kernel, for the cross-ISA conformance test
/// and the same-session kernel benches. `out` must be zero-filled. The
/// kernel is a function argument only: nothing a user can set selects one.
///
/// # Panics
///
/// Panics when this CPU does not support `kernel`.
#[doc(hidden)]
pub fn matmul_seq_with(
    kernel: MicroKernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(
        kernel.is_supported(),
        "{kernel:?} needs CPU features this machine lacks"
    );
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    gebp(kernel, a, b, None, out, k, n);
}

/// `out += A·B (+ bias)` over the `out.len() / n` rows of `a`. `out` must be
/// zero-filled. `kernel` must be supported by this CPU (the callers detect it
/// or assert it).
///
/// From [`MR`] rows up this is the GEBP loop nest: for each column panel of
/// B, for each k-block, pack and [`accumulate_panel`]; then the bias epilogue
/// on that column panel. A panel is packed so that every row strip after the
/// first streams it dense and hot; with fewer than [`MR`] rows there is no
/// second strip, so those calls allocate no scratch, pack nothing and read B
/// once where it lies ([`thin_rows_dispatch`]).
///
/// Each packing call packs its own panels of B, one `kc × nc` panel at a
/// time, into a scratch it allocates. Both were measured against the
/// alternatives on the `[64,192]×[192,768]` product, two threads: packing B
/// once per call into a buffer all row chunks share is *slower* (330 µs with recycled buffers,
/// 500 µs with fresh ones, against 245 µs) because a panel packed by one core
/// is no longer in the L2 of the core that streams it and because a
/// `k·n`-float allocation per call makes glibc trim and re-fault the heap;
/// a thread-local scratch added ~1 MiB (+15 %) to the peak RSS of runs that
/// spawn short-lived device threads for a saving no timing could resolve.
/// What redundancy there is, is bounded by `chunk_rows` instead.
fn gebp(
    kernel: MicroKernel,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    if out.is_empty() {
        return;
    }
    if out.len() < MR * n {
        thin_rows_dispatch(kernel, a, b, out, k, n);
        add_bias(bias, out, n, 0, n);
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
            accumulate_panel(kernel, a, &panel, out, k, n, (jc, nc), (pc, kc));
        }
        add_bias(bias, out, n, jc, nc);
    }
}

/// The bias epilogue: `out[r][jc..jc+nc] += bias[jc..jc+nc]` for every
/// `n`-wide row of `out` (`n > 0`).
fn add_bias(bias: Option<&[f32]>, out: &mut [f32], n: usize, jc: usize, nc: usize) {
    let Some(bias) = bias else { return };
    let bias = &bias[jc..jc + nc];
    for row in out.chunks_exact_mut(n) {
        for (o, &b) in row[jc..jc + nc].iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// The unpacked row×matrix kernel under products of fewer than [`MR`] rows
/// (`out.len() / n` of them, `n > 0`): one pass over B where it lies, each
/// row of B multiplied into every output row as it goes by. Per element that
/// is `k` unfused multiply-adds in ascending `p` straight into `out` — the
/// arithmetic of [`micro_tile_1`] over every packed panel in turn, and of
/// [`matmul_reference`] — on every [`MicroKernel`]: the kernel only names the
/// vector width [`thin_rows`] is compiled at (512-bit, 256-bit, or the
/// target's baseline, NEON on aarch64).
fn thin_rows_dispatch(
    kernel: MicroKernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel` is only ever `Avx512` after `is_supported()` saw
        // `avx512f` (`detect`, or the assert in `matmul_seq_with`).
        MicroKernel::Avx512 => unsafe { thin_rows_avx512(a, b, out, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; `is_supported()` requires `avx2` for `Avx2Fma`.
        MicroKernel::Avx2Fma => unsafe { thin_rows_avx2(a, b, out, k, n) },
        _ => thin_rows(a, b, out, k, n),
    }
}

/// [`thin_rows`] compiled with 512-bit vectors.
///
/// # Safety
///
/// The caller must guarantee the `avx512f` CPU feature is present. The body
/// is safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn thin_rows_avx512(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    thin_rows(a, b, out, k, n);
}

/// [`thin_rows`] compiled with 256-bit vectors (`avx2` alone: nothing here
/// fuses, so `fma` is not needed).
///
/// # Safety
///
/// The caller must guarantee the `avx2` CPU feature is present. The body is
/// safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn thin_rows_avx2(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    thin_rows(a, b, out, k, n);
}

/// The body of [`thin_rows_dispatch`], written once and inlined into each
/// width's wrapper so LLVM vectorizes the axpy at that wrapper's features.
/// Rust never contracts `o + x * w` into a fused multiply-add, whatever the
/// features; `tests/parallel_kernels.rs` pins that against the reference.
/// B is indexed by `p·n`, so `k = 0` is an empty loop, not a zero chunk size.
#[inline(always)]
fn thin_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    for p in 0..k {
        let brow = &b[p * n..][..n];
        for (r, orow) in out.chunks_exact_mut(n).enumerate() {
            let x = a[r * k + p];
            for (o, &w) in orow.iter_mut().zip(brow) {
                *o += x * w;
            }
        }
    }
}

/// `out[.., jc..jc+nc] += a[.., pc..pc+kc] · panel` for every row of `a`
/// (`out.len() / n` of them): 8-row strips on the AVX-512 tile when `kernel`
/// has it, then [`MR`]-row strips, then single rows.
///
/// Which tile a row lands on never changes its bits among the FMA kernels:
/// every element left of column `nc − nc % 16` is `kc` sequential fused
/// multiply-adds from zero plus one flush add, every element right of it is
/// `kc` unfused multiply-adds straight into `out`, and rows from
/// `rows − rows % 4` on always take `micro_tile_1`. That is what makes
/// AVX-512 and AVX2 results bit-identical, and what lets a parallel chunk
/// boundary (a multiple of [`MR`] rows) fall anywhere.
#[allow(clippy::too_many_arguments)]
fn accumulate_panel(
    kernel: MicroKernel,
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    (jc, nc): (usize, usize),
    (pc, kc): (usize, usize),
) {
    let rows = out.len() / n;
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let mut row = 0;
    #[cfg(target_arch = "x86_64")]
    if kernel == MicroKernel::Avx512 {
        while row + MR8 <= rows {
            // SAFETY: `kernel` is only ever `Avx512` after `is_supported()`
            // saw `avx512f` (`detect`, or the assert in `matmul_seq_with`);
            // the slice bounds the tile relies on are asserted inside it.
            unsafe {
                micro_tile_8_avx512(
                    &a[row * k + pc..],
                    k,
                    kc,
                    panel,
                    nc,
                    &mut out[row * n + jc..],
                    n,
                );
            }
            row += MR8;
        }
    }
    let a_strips = a[row * k..].chunks(MR * k);
    for (a_strip, out_strip) in a_strips.zip(out[row * n..].chunks_mut(MR * n)) {
        if out_strip.len() == MR * n {
            let (r0, rest) = out_strip.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            micro_tile_4_dispatch(
                kernel,
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

/// Runs the 4-row micro-kernel `kernel` names: the AVX2+FMA tile for both
/// FMA kernels, the portable auto-vectorized tile otherwise. Both accumulate
/// each output element in the same p-order, so cross-variant differences
/// stay within FMA rounding.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_tile_4_dispatch(
    kernel: MicroKernel,
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
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an FMA `kernel` has passed `is_supported()`, which requires
        // `avx2` and `fma` for both of them.
        MicroKernel::Avx2Fma | MicroKernel::Avx512 => unsafe {
            micro_tile_4_fma(a0, a1, a2, a3, panel, nc, o0, o1, o2, o3);
        },
        _ => micro_tile_4(a0, a1, a2, a3, panel, nc, o0, o1, o2, o3),
    }
}

/// Rows per AVX-512 tile. Eight, not four (see the module docs): 8×32 halves
/// the panel bytes a 4×32 tile reads per FMA and fills 16 of the 32 `zmm`
/// registers with accumulators.
#[cfg(target_arch = "x86_64")]
const MR8: usize = 8;

/// AVX-512 8×32 micro-kernel: `out[r][j] += Σ_p a[r·lda + p] · panel[p][j]`
/// for 8 rows and all `nc` columns — sixteen `zmm` accumulators per 32-column
/// tile, one 16-column `zmm` step, then the same unfused scalar column tail
/// as [`micro_tile_4_fma`], so the FMA/scalar boundary sits at
/// `nc − nc % 16` in both.
///
/// # Safety
///
/// The caller must guarantee the `avx512f` CPU feature is present. The slice
/// lengths every pointer access relies on are asserted on entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_tile_8_avx512(
    a: &[f32],
    lda: usize,
    kc: usize,
    panel: &[f32],
    nc: usize,
    out: &mut [f32],
    ldc: usize,
) {
    assert!(a.len() >= (MR8 - 1) * lda + kc);
    assert!(panel.len() >= kc * nc);
    assert!(out.len() >= (MR8 - 1) * ldc + nc);
    let mut j = 0;
    while j + 32 <= nc {
        // SAFETY: `avx512f` per this fn's contract; the asserts above and
        // `j + 32 <= nc` are `tile_8_avx512::<2>`'s bounds.
        unsafe {
            tile_8_avx512::<2>(
                a.as_ptr(),
                lda,
                kc,
                panel.as_ptr(),
                nc,
                out.as_mut_ptr(),
                ldc,
                j,
            );
        }
        j += 32;
    }
    if j + 16 <= nc {
        // SAFETY: as above, with `j + 16 <= nc` for the one-vector tile.
        unsafe {
            tile_8_avx512::<1>(
                a.as_ptr(),
                lda,
                kc,
                panel.as_ptr(),
                nc,
                out.as_mut_ptr(),
                ldc,
                j,
            );
        }
        j += 16;
    }
    if j < nc {
        // Column remainder (< 16), unfused and straight into `out`, exactly
        // as in the 4-row kernel.
        for p in 0..kc {
            let brow = &panel[p * nc..(p + 1) * nc];
            for r in 0..MR8 {
                let x = a[r * lda + p];
                let orow = &mut out[r * ldc..r * ldc + nc];
                for l in j..nc {
                    orow[l] += x * brow[l];
                }
            }
        }
    }
}

/// One 8 × `16·V` register tile of [`micro_tile_8_avx512`] at panel column
/// `j`: `8·V` `zmm` accumulators, `kc` fused multiply-adds each from zero,
/// flushed into `out` with one add.
///
/// # Safety
///
/// Needs `avx512f`, and for every `r < 8`, `p < kc`: `a[r·lda + p]`,
/// `panel[p·nc + j .. p·nc + j + 16·V]` and `out[r·ldc + j .. r·ldc + j +
/// 16·V]` in bounds of the allocations the three pointers point into.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_8_avx512<const V: usize>(
    a: *const f32,
    lda: usize,
    kc: usize,
    panel: *const f32,
    nc: usize,
    out: *mut f32,
    ldc: usize,
    j: usize,
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    // SAFETY: every offset below is one the caller's contract names.
    unsafe {
        let mut c = [[_mm512_setzero_ps(); V]; MR8];
        for p in 0..kc {
            let bp = panel.add(p * nc + j);
            let mut b = [_mm512_setzero_ps(); V];
            for (v, lane) in b.iter_mut().enumerate() {
                *lane = _mm512_loadu_ps(bp.add(16 * v));
            }
            for (r, acc) in c.iter_mut().enumerate() {
                let x = _mm512_set1_ps(*a.add(r * lda + p));
                for (sum, &lane) in acc.iter_mut().zip(&b) {
                    *sum = _mm512_fmadd_ps(x, lane, *sum);
                }
            }
        }
        for (r, acc) in c.iter().enumerate() {
            for (v, &sum) in acc.iter().enumerate() {
                let o = out.add(r * ldc + j + 16 * v);
                _mm512_storeu_ps(o, _mm512_add_ps(_mm512_loadu_ps(o), sum));
            }
        }
    }
}

/// AVX2+FMA 4×16 micro-kernel: eight `ymm` accumulators (4 rows × 16
/// columns) updated with two fused multiply-adds per packed panel row, per
/// row of A. Columns past the last 16-wide tile fall through to the portable
/// kernel.
///
/// # Safety
///
/// The caller must guarantee that (a) the `avx2` and `fma` CPU features are
/// present (the only call site runs it for a [`MicroKernel`] that passed
/// `is_supported()`), and (b) `a1`, `a2`, `a3` are at least
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

/// Single-row micro-kernel for the `m % 4` remainder rows of a packed call
/// (products of fewer than [`MR`] rows never pack and never get here).
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
        let a_rows = &a[row0 * k..(row0 + rows) * k];
        matmul_transposed_seq(a_rows, b, out_chunk, k, n);
    });
}

/// Sequential body of [`matmul_transposed`]: `a` holds `out.len() / n` rows.
fn matmul_transposed_seq(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (o, brow) in orow.iter_mut().zip(b.chunks_exact(k)) {
            *o = dot(arow, brow);
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
        // k == 0 leaves the zero-filled output untouched.
        let mut out = vec![0.0f32; 4];
        matmul(&[], &[], &mut out, 2, 0, 2, &pool);
        assert_eq!(out, vec![0.0; 4]);
        // n == 0 produces an empty output.
        let a = random(6, 10);
        let mut out: Vec<f32> = Vec::new();
        matmul(&a, &[], &mut out, 2, 3, 0, &pool);
        matmul_transposed(&a, &[], &mut out, 2, 3, 0, &pool);
        // The unpacked path (fewer than MR rows): an empty contraction is
        // exactly the bias row, or the zeros it was handed.
        let bias = random(5, 11);
        for m in 1..MR {
            let mut out = vec![0.0f32; m * 5];
            matmul_bias(&[], &[], Some(&bias), &mut out, m, 0, 5, &pool);
            assert_eq!(out, bias.repeat(m));
            let mut out = vec![0.0f32; m * 5];
            matmul(&[], &[], &mut out, m, 0, 5, &pool);
            assert_eq!(out, vec![0.0; m * 5]);
            // No columns or no rows: nothing to touch, bias or not.
            let a = random(m * 3, 12);
            matmul_bias(&a, &[], Some(&[]), &mut [], m, 3, 0, &pool);
        }
        matmul_bias(&[], &b, Some(&bias[..2]), &mut [], 0, 3, 2, &pool);
        // [1, k]×[k, 1]: one output element.
        let (a, b) = (random(7, 13), random(7, 14));
        let mut out = [0.0f32];
        matmul(&a, &b, &mut out, 1, 7, 1, &pool);
        let mut expected = [0.0f32];
        matmul_reference(&a, &b, &mut expected, 1, 7, 1);
        assert_eq!(out, expected);
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
    fn dot_matches_naive() {
        let a = random(101, 7);
        let b = random(101, 8);
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
