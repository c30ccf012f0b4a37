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
//! `matmul` is the one product kernel: a product against a transposed
//! operand (attention's `Q·Kᵀ` and `dOut·Vᵀ`, a layer's input gradient
//! `g·Wᵀ`) transposes that operand and runs here too. It uses the classic
//! GEBP blocking scheme, sized for edge-class CPUs:
//!
//! * **Column panels** — B is packed into contiguous `KC × NC` panels
//!   (`256 × 128` floats = 128 KiB, sized to sit in L2) so the innermost loop
//!   streams one dense panel instead of striding through all of B. A panel
//!   is packed only when more than one row strip will read it: a product of
//!   fewer than [`MR`] rows (every `[1,k]×[k,n]` fusion call and
//!   single-image head) allocates no scratch, packs nothing and reads B once
//!   where it lies. Nor is a B that already is its one panel (`k ≤ KC`,
//!   `n ≤ NC`: attention's `Q_h·K_hᵀ` and `A·V_h`, every Linear of the tiny
//!   demo) — the packed copy would equal it byte for byte, so it is read in
//!   place and the arithmetic, hence every bit, is the packed path's.
//! * **Register tiling** — a strip of output rows is accumulated against a
//!   tile of panel columns whose partial sums live entirely in registers, so
//!   each packed B row is loaded once per strip. The tile is picked at run
//!   time ([`MicroKernel::detect`], no option selects it):
//!
//!   | CPU has | rows × columns | accumulators | column steps |
//!   |---|---|---|---|
//!   | `avx512f` (x86-64) | 8 × 32 | 16 `zmm` | 32, then one 16, then the row tile's masked 16-lane step |
//!   | `avx2` + `fma` (x86-64) | 4 × 16 | 8 `ymm` | 16, then the row tile's 8, 4, 2, 1 |
//!   | anything else | 4 × 8 | 4 × 8 scalars LLVM vectorizes | 8, then the row tile's 4, 2, 1 |
//!   | fewer than [`MR`] rows, any CPU | 1–3 × up to 128, B unpacked | `R·V` `zmm` (`V` ≤ 8); otherwise `R` × 32 scalars LLVM vectorizes (at `ymm` width on `avx2`) | `zmm`: 128, 64, 32, 16, then one masked 16-lane step; otherwise 32, then 16, 8, 4, 2, 1 |
//!
//!   Every strip and the row tile's safe form are one safe body
//!   (`Tile::block`, const-generic over rows, width and mode, one named
//!   `[f32; W]` accumulator per row) compiled per ISA by thin
//!   `#[target_feature]` wrappers: `avx512f,avx2,fma` for the 8-row strip,
//!   `avx2,fma` for the 4-row strip of both FMA kernels, `avx2` for the row
//!   tile on `Avx2Fma`, the target's baseline on `Portable`. The row tile's
//!   masked `zmm` block is the only intrinsics code.
//!   Rows left over after the 8-row strips take the 4 × 16 strip, rows left
//!   over after the 4-row strips ([`MR`]) take that same 1–3-row tile
//!   (`row_tile`) over the panels the strips before them packed, and so do
//!   the columns past a strip's last full vector step, four rows at a time.
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
//! k-block, an element right of that boundary is the row tile's `kc`
//! unfused multiply-adds continuing from the output, and rows from
//! `m − m % 4` on take the row tile. Which strip (8 × 32, 8 × 16, 4 × 16)
//! computes an element changes how many neighbours share its loads, never
//! its arithmetic: all of them are `Tile::block` in the fused strip mode. A
//! new strip must keep the 16-column boundary and the 4-row one. The
//! portable strip is the same body in the unfused strip mode (chains from
//! zero of `acc + x·b`, flushed with one add, left of `nc − nc % 8`) and
//! differs from the FMA kernels by rounding only.
//! `tests/parallel_kernels.rs` compares the FMA kernels bit for bit, and
//! `strip_elements_follow_the_cross_isa_rule_on_every_kernel` checks every
//! element on every kernel against a scalar model of this rule.
//!
//! Products of fewer than [`MR`] rows, the `m % 4` remainder rows and the
//! strips' column tails all run on the row tile (`row_tile`), and it is
//! unfused on *every* kernel: it loads each accumulator from the output,
//! adds `x·b` to it with a separate multiply and add in ascending `p`, and
//! stores it once. A thin product's output is zero-filled, so that is `k`
//! multiply-adds from `+0.0`, then the bias; a remainder row's (or a column
//! tail's) second and later k-blocks continue from what the earlier ones
//! stored — the same sum, which is why the tile loads rather than zeroes.
//! So on thin products and remainder rows even `Portable` agrees bit for
//! bit with the FMA kernels, and all three with [`matmul_reference`]. That
//! is also why a parallel chunk that ends up with fewer than [`MR`] rows may
//! take the unpacked path: sequentially those rows are remainder rows, same
//! bits.

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
    /// 4×8 strips of unfused multiply-adds, the safe tile body compiled at
    /// the target's baseline and vectorized by LLVM.
    Portable,
    /// 4×16 strips of fused multiply-adds, the safe tile body compiled with
    /// `avx2,fma` (eight `ymm` accumulators).
    Avx2Fma,
    /// 8×32 strips of fused multiply-adds, the safe tile body compiled with
    /// `avx512f,avx2,fma` (sixteen `zmm` accumulators); leftover 4-row
    /// strips run the [`MicroKernel::Avx2Fma`] strip.
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

    /// Whether this CPU has the features the kernel is compiled for.
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
    // A fork, not one region: one GEBP packs B once, per-chunk GEBPs each re-pack it.
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
/// once where it lies ([`row_tile`]). A B of `k ≤ KC` rows and
/// `n ≤ NC` columns is already the one dense `kc × nc` panel, so it is
/// streamed in place with no scratch either.
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
        row_tile(kernel, out.len() / n, (a, k), (b, n), (out, n), k, (0, n));
        add_bias(bias, out, n, 0, n);
        return;
    }
    let packs = k > KC || n > NC;
    let mut scratch = Vec::with_capacity(if packs { KC.min(k) * NC.min(n) } else { 0 });
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let panel: &[f32] = if packs {
                // Pack B[pc..pc+kc, jc..jc+nc] into a contiguous kc×nc panel.
                scratch.clear();
                for p in pc..pc + kc {
                    scratch.extend_from_slice(&b[p * n + jc..][..nc]);
                }
                &scratch
            } else {
                b
            };
            accumulate_panel(kernel, a, panel, out, k, n, (jc, nc), (pc, kc));
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

/// The row tile under products of fewer than [`MR`] rows, under the `m % 4`
/// remainder rows of packed ones and under the column tail of every 4- and
/// 8-row strip: `out[r·ldc + j] += Σ_p a[r·lda + p] · b[p·ldb + j]` for
/// `r < rows`, `p < kc`, `j0 ≤ j < ncols`, where `lda`, `ldb` and `ldc` are
/// the row strides of `a`, `b` and `out`. A thin product passes B where it
/// lies (`ldb = n`, all of `k`), remainder rows and a strip's tail the panel
/// (`ldb = nc`, one k-block). `rows` is 1 to 3 over any width, or a 4-row
/// strip's (or half an 8-row strip's) 4 over the fewer than 16 columns its
/// vector blocks left (`j0` is where they stopped).
///
/// Each output element is loaded from `out` into a register, gets `kc`
/// unfused multiply-adds `acc + x·b` in ascending `p` there, and is stored
/// once. On a zero-filled `out` that is [`matmul_reference`]'s arithmetic; on
/// a packed product's second and later k-blocks it continues the sum the
/// earlier blocks left in `out` — which is why the accumulators are loaded,
/// not zeroed. The [`MicroKernel`] only names the register width: `zmm`
/// intrinsics with one masked step for the columns past the last full
/// vector, or [`Tile::block`] compiled with `avx2` or at the target's
/// baseline (NEON on aarch64).
fn row_tile(
    kernel: MicroKernel,
    rows: usize,
    (a, lda): (&[f32], usize),
    (b, ldb): (&[f32], usize),
    (out, ldc): (&mut [f32], usize),
    kc: usize,
    cols: (usize, usize),
) {
    if kc == 0 || cols.0 == cols.1 {
        return;
    }
    match rows {
        1 => Tile::<1>::new((a, lda), (b, ldb), (out, ldc), kc, cols).run_on(kernel),
        2 => Tile::<2>::new((a, lda), (b, ldb), (out, ldc), kc, cols).run_on(kernel),
        3 => Tile::<3>::new((a, lda), (b, ldb), (out, ldc), kc, cols).run_on(kernel),
        4 => Tile::<4>::new((a, lda), (b, ldb), (out, ldc), kc, cols).run_on(kernel),
        _ => unreachable!("the row tile takes 1 to {MR} rows, not {rows}"),
    }
}

/// [`Tile::block`]'s `MODE` is a set of these flags. With none, the row
/// tile's mode, each accumulator is loaded from `out`, gets `acc + x·w` per
/// `p` and is stored.
const ROW_TILE: u8 = 0;
/// A strip's mode: accumulators start from `+0.0` and are flushed into `out`
/// with one add.
const STRIP: u8 = 1;
/// Every multiply-add is one `f32::mul_add`. Only the functions compiled
/// with `fma` set it, where that is one instruction: the cross-ISA rule
/// (fused left of a strip's last 16-column step, unfused everywhere else) is
/// which call sites pass this flag.
const FUSED: u8 = 2;

/// The operands of one register tile on `R` rows — a [`row_tile`] call or a
/// strip of [`accumulate_panel`] — their bounds asserted by [`Tile::new`].
struct Tile<'a, const R: usize> {
    a: &'a [f32],
    lda: usize,
    b: &'a [f32],
    ldb: usize,
    out: &'a mut [f32],
    ldc: usize,
    kc: usize,
    j0: usize,
    ncols: usize,
}

impl<'a, const R: usize> Tile<'a, R> {
    /// The tile over columns `j0..ncols` of `kc` rows of B. Asserts that
    /// every `a[r·lda + p]` and `out[r·ldc + j]` the tile touches is in
    /// bounds, and that `b` holds `kc` whole rows of `ldb ≥ ncols` columns
    /// (so a block indexes a row of B with no check per `p`). `kc` is at
    /// least 1 and `j0 < ncols`.
    fn new(
        (a, lda): (&'a [f32], usize),
        (b, ldb): (&'a [f32], usize),
        (out, ldc): (&'a mut [f32], usize),
        kc: usize,
        (j0, ncols): (usize, usize),
    ) -> Self {
        assert!(j0 < ncols && ncols <= ldb);
        assert!(a.len() >= (R - 1) * lda + kc);
        assert!(b.len() >= kc * ldb);
        assert!(out.len() >= (R - 1) * ldc + ncols);
        Tile {
            a,
            lda,
            b,
            ldb,
            out,
            ldc,
            kc,
            j0,
            ncols,
        }
    }

    /// Runs the row tile at the register width `kernel` names.
    fn run_on(mut self, kernel: MicroKernel) {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `kernel` is only ever `Avx512` after `is_supported()`
            // saw `avx512f` (`detect`, or the assert in `matmul_seq_with`);
            // `row_tile` returned on an empty `kc` or column range, and `new`
            // asserted the bounds.
            MicroKernel::Avx512 => unsafe { self.run_avx512() },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_supported()` requires `avx2` for `Avx2Fma`.
            MicroKernel::Avx2Fma => unsafe { self.run_avx2() },
            _ => self.run(),
        }
    }

    /// Runs the strip `kernel` names over the tile's `R` rows (8 on `Avx512`,
    /// else 4) and returns the column its vector blocks stopped at: every
    /// strip starts at column 0, so that is `ncols − ncols % 16` on the FMA
    /// kernels and `ncols − ncols % 8` on `Portable`.
    fn strip_on(mut self, kernel: MicroKernel) -> usize {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `kernel` is only ever `Avx512` after `is_supported()`
            // saw `avx512f`, `avx2` and `fma`.
            MicroKernel::Avx512 if R == MR8 => unsafe { self.strip_avx512() },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_supported()` requires `avx2` and `fma` for both
            // FMA kernels.
            MicroKernel::Avx2Fma | MicroKernel::Avx512 => unsafe { self.strip_fma() },
            _ => self.blocks::<8, STRIP>(self.j0),
        }
    }

    /// The safe row tile, for [`MicroKernel::Portable`] and, compiled with
    /// `avx2` ([`Tile::run_avx2`]), for [`MicroKernel::Avx2Fma`]:
    /// 32-column blocks, then one block each of 16, 8, 4, 2 and 1 columns as
    /// far as `ncols` reaches.
    #[inline(always)]
    fn run(&mut self) {
        let ncols = self.ncols;
        let mut j = self.blocks::<32, ROW_TILE>(self.j0);
        if j + 16 <= ncols {
            self.block::<16, ROW_TILE>(j);
            j += 16;
        }
        if j + 8 <= ncols {
            self.block::<8, ROW_TILE>(j);
            j += 8;
        }
        if j + 4 <= ncols {
            self.block::<4, ROW_TILE>(j);
            j += 4;
        }
        if j + 2 <= ncols {
            self.block::<2, ROW_TILE>(j);
            j += 2;
        }
        if j < ncols {
            self.block::<1, ROW_TILE>(j);
        }
    }

    /// [`Tile::run`] compiled with 256-bit vectors (`avx2` alone: nothing
    /// here fuses, so `fma` is not needed).
    ///
    /// # Safety
    ///
    /// The caller must guarantee the `avx2` CPU feature is present. The body
    /// is safe code.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2(&mut self) {
        self.run();
    }

    /// The 8-row strip of [`MicroKernel::Avx512`]: 32-column blocks, then
    /// one of 16, fused, each row's 32 sums in two `zmm` registers.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the `avx512f`, `avx2` and `fma` CPU
    /// features are present. The body is safe code.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn strip_avx512(&mut self) -> usize {
        let j = self.blocks::<32, { STRIP | FUSED }>(self.j0);
        self.blocks::<16, { STRIP | FUSED }>(j)
    }

    /// The 4-row strip of both FMA kernels: 16-column blocks, fused, each
    /// row's 16 sums in two `ymm` registers.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the `avx2` and `fma` CPU features are
    /// present. The body is safe code.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn strip_fma(&mut self) -> usize {
        self.blocks::<16, { STRIP | FUSED }>(self.j0)
    }

    /// [`Tile::block`]s of `W` columns from column `j` while a whole one
    /// fits in `ncols`; returns the column they stopped at.
    #[inline(always)]
    fn blocks<const W: usize, const MODE: u8>(&mut self, mut j: usize) -> usize {
        while j + W <= self.ncols {
            self.block::<W, MODE>(j);
            j += W;
        }
        j
    }

    /// Columns `j..j + W` of the tile's `R` rows (up to 8) in `MODE`: the
    /// one body of every strip and of the safe row tile. Rust never
    /// contracts `acc + x * w` into a fused multiply-add, whatever the
    /// features, so only [`FUSED`] fuses; `tests/parallel_kernels.rs` pins
    /// every mode's bits against a scalar model of the rule.
    #[inline(always)]
    fn block<const W: usize, const MODE: u8>(&mut self, j: usize) {
        // One named accumulator per row: LLVM keeps those in registers,
        // where an `[[f32; W]; R]` it indexes by row stays on the stack
        // (about 3x slower). Rows past `R` are compiled out.
        let (kc, lda, ldb, ldc) = (self.kc, self.lda, self.ldb, self.ldc);
        let a_row = |r: usize| &self.a[r.min(R - 1) * lda..][..kc];
        let (a0, a1, a2, a3) = (a_row(0), a_row(1), a_row(2), a_row(3));
        let (a4, a5, a6, a7) = (a_row(4), a_row(5), a_row(6), a_row(7));
        let init = |r: usize| -> [f32; W] {
            let mut sums = [0.0f32; W];
            if MODE & STRIP == 0 && r < R {
                sums.copy_from_slice(&self.out[r * ldc + j..][..W]);
            }
            sums
        };
        let (mut c0, mut c1, mut c2, mut c3) = (init(0), init(1), init(2), init(3));
        let (mut c4, mut c5, mut c6, mut c7) = (init(4), init(5), init(6), init(7));
        // Row `p` of B is the `p`-th whole `ldb`-wide chunk of `b` (`new`
        // asserted `kc` of them), and the block's columns lie inside it, so
        // the loop indexes B with no check per `p`.
        assert!(j + W <= ldb);
        for (b_row, p) in self.b.chunks_exact(ldb).zip(0..kc) {
            // A local copy: read from the slice, the 8 × 16 strip rebuilt
            // its 16-lane row from pieces, two inserts per `p`.
            let mut brow = [0.0f32; W];
            brow.copy_from_slice(&b_row[j..j + W]);
            accumulate_row::<W, MODE>(&mut c0, a0[p], &brow);
            if R > 1 {
                accumulate_row::<W, MODE>(&mut c1, a1[p], &brow);
            }
            if R > 2 {
                accumulate_row::<W, MODE>(&mut c2, a2[p], &brow);
            }
            if R > 3 {
                accumulate_row::<W, MODE>(&mut c3, a3[p], &brow);
            }
            if R > 4 {
                accumulate_row::<W, MODE>(&mut c4, a4[p], &brow);
            }
            if R > 5 {
                accumulate_row::<W, MODE>(&mut c5, a5[p], &brow);
            }
            if R > 6 {
                accumulate_row::<W, MODE>(&mut c6, a6[p], &brow);
            }
            if R > 7 {
                accumulate_row::<W, MODE>(&mut c7, a7[p], &brow);
            }
        }
        let out = &mut *self.out;
        store_row::<W, MODE>(&mut out[j..], &c0);
        if R > 1 {
            store_row::<W, MODE>(&mut out[ldc + j..], &c1);
        }
        if R > 2 {
            store_row::<W, MODE>(&mut out[2 * ldc + j..], &c2);
        }
        if R > 3 {
            store_row::<W, MODE>(&mut out[3 * ldc + j..], &c3);
        }
        if R > 4 {
            store_row::<W, MODE>(&mut out[4 * ldc + j..], &c4);
        }
        if R > 5 {
            store_row::<W, MODE>(&mut out[5 * ldc + j..], &c5);
        }
        if R > 6 {
            store_row::<W, MODE>(&mut out[6 * ldc + j..], &c6);
        }
        if R > 7 {
            store_row::<W, MODE>(&mut out[7 * ldc + j..], &c7);
        }
    }

    /// The AVX-512 row tile: 128-column blocks of `8·R` `zmm` accumulators,
    /// then one block each of 64, 32 and 16 columns as far as `ncols`
    /// reaches, then one masked 16-lane block for the last `ncols % 16`
    /// columns. A strip's column tail (4 rows, fewer than 16 columns) is that
    /// masked block alone.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the `avx512f` CPU feature is present and that
    /// `kc > 0` and `j0 < ncols` (the bounds [`Tile::new`] asserted then
    /// cover every access).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn run_avx512(&mut self) {
        const ALL: u16 = u16::MAX;
        let ncols = self.ncols;
        let mut j = self.j0;
        // SAFETY: `avx512f` per this fn's contract, and every block's
        // lanes end at or before `ncols` by its guard.
        unsafe {
            while j + 128 <= ncols {
                self.block_avx512::<8>(j, ALL);
                j += 128;
            }
            if j + 64 <= ncols {
                self.block_avx512::<4>(j, ALL);
                j += 64;
            }
            if j + 32 <= ncols {
                self.block_avx512::<2>(j, ALL);
                j += 32;
            }
            if j + 16 <= ncols {
                self.block_avx512::<1>(j, ALL);
                j += 16;
            }
            if j < ncols {
                self.block_avx512::<1>(j, (1u16 << (ncols - j)) - 1);
            }
        }
    }

    /// Columns `j..j + 16·V` of [`Tile::run_avx512`] in `R × V` `zmm`
    /// accumulators, each lane loaded from `out`, updated by a separate
    /// multiply and add per `p`, and stored once. Lanes outside `mask` (the
    /// same for each of the `V` vectors) are neither read nor written.
    ///
    /// # Safety
    ///
    /// Needs `avx512f`, `kc > 0`, and every column `j + 16·v + l` with
    /// `v < V` and bit `l` set in `mask` below `ncols`: [`Tile::new`]
    /// asserted the slice bounds for those columns.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn block_avx512<const V: usize>(&mut self, j: usize, mask: u16) {
        use std::arch::x86_64::{
            _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
            _mm512_set1_ps, _mm512_setzero_ps,
        };
        let (a, b, out) = (self.a.as_ptr(), self.b.as_ptr(), self.out.as_mut_ptr());
        let (lda, ldb, ldc) = (self.lda, self.ldb, self.ldc);
        // SAFETY: every offset below is an `a[r·lda + p]`, or a masked
        // access to columns the caller's contract names, of a row `r < R`
        // and `p < kc`; masked-off lanes are not accessed.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); V]; R];
            for (r, sums) in acc.iter_mut().enumerate() {
                for (v, sum) in sums.iter_mut().enumerate() {
                    *sum = _mm512_maskz_loadu_ps(mask, out.add(r * ldc + j + 16 * v));
                }
            }
            for p in 0..self.kc {
                let x: [_; R] = std::array::from_fn(|r| _mm512_set1_ps(*a.add(r * lda + p)));
                let bp = b.add(p * ldb + j);
                for v in 0..V {
                    let lane = _mm512_maskz_loadu_ps(mask, bp.add(16 * v));
                    for (sums, &x) in acc.iter_mut().zip(&x) {
                        sums[v] = _mm512_add_ps(sums[v], _mm512_mul_ps(x, lane));
                    }
                }
            }
            for (r, sums) in acc.iter().enumerate() {
                for (v, &sum) in sums.iter().enumerate() {
                    _mm512_mask_storeu_ps(out.add(r * ldc + j + 16 * v), mask, sum);
                }
            }
        }
    }
}

/// `sums[l] += x · b[l]` for every lane of one row block: one `f32::mul_add`
/// when `MODE` has [`FUSED`], a separate multiply and add otherwise.
#[inline(always)]
fn accumulate_row<const W: usize, const MODE: u8>(sums: &mut [f32; W], x: f32, b: &[f32; W]) {
    for (sum, &w) in sums.iter_mut().zip(b) {
        *sum = if MODE & FUSED == 0 {
            *sum + x * w
        } else {
            x.mul_add(w, *sum)
        };
    }
}

/// Writes one row block's sums back: stored over `out` in the row tile's
/// mode, added to it in a strip's.
#[inline(always)]
fn store_row<const W: usize, const MODE: u8>(out: &mut [f32], sums: &[f32; W]) {
    let out = &mut out[..W];
    if MODE & STRIP == 0 {
        out.copy_from_slice(sums);
        return;
    }
    for (o, &sum) in out.iter_mut().zip(sums) {
        *o += sum;
    }
}

/// `out[.., jc..jc+nc] += a[.., pc..pc+kc] · panel` for every row of `a`
/// (`out.len() / n` of them): [`MR8`]-row strips when `kernel` is `Avx512`,
/// then [`MR`]-row strips, then the last 1–3 rows on [`row_tile`]. A strip's
/// vector blocks stop at its last full column step (16 columns on the FMA
/// kernels, 8 on the portable one) and return that column; the columns past
/// it run on [`row_tile`] too, four rows at a time.
///
/// Which strip a row lands on never changes its bits among the FMA kernels:
/// every element left of column `nc − nc % 16` is `kc` sequential fused
/// multiply-adds from zero plus one flush add, every element right of it is
/// `kc` unfused multiply-adds continuing from `out`, and rows from
/// `rows − rows % 4` on always take [`row_tile`]. That is what makes
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
    // The row tile over `strip_rows` rows from `row`, from panel column `col`.
    let row_tile_from = |out: &mut [f32], row: usize, strip_rows: usize, col: usize| {
        row_tile(
            kernel,
            strip_rows,
            (&a[row * k + pc..], k),
            (panel, nc),
            (&mut out[row * n + jc..], n),
            kc,
            (col, nc),
        );
    };
    let mut row = 0;
    if kernel == MicroKernel::Avx512 {
        while row + MR8 <= rows {
            let strip = Tile::<MR8>::new(
                (&a[row * k + pc..], k),
                (panel, nc),
                (&mut out[row * n + jc..], n),
                kc,
                (0, nc),
            );
            let tail = strip.strip_on(kernel);
            row_tile_from(out, row, MR, tail);
            row_tile_from(out, row + MR, MR, tail);
            row += MR8;
        }
    }
    while row + MR <= rows {
        let strip = Tile::<MR>::new(
            (&a[row * k + pc..], k),
            (panel, nc),
            (&mut out[row * n + jc..], n),
            kc,
            (0, nc),
        );
        let tail = strip.strip_on(kernel);
        row_tile_from(out, row, MR, tail);
        row += MR;
    }
    if row < rows {
        row_tile_from(out, row, rows - row, 0);
    }
}

/// Rows per AVX-512 strip. Eight, not four (see the module docs): 8×32
/// halves the panel bytes a 4×32 strip reads per FMA and fills 16 of the 32
/// `zmm` registers with accumulators.
const MR8: usize = 8;

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
        // k == 0 leaves the zero-filled output untouched.
        let mut out = vec![0.0f32; 4];
        matmul(&[], &[], &mut out, 2, 0, 2, &pool);
        assert_eq!(out, vec![0.0; 4]);
        // n == 0 produces an empty output.
        let a = random(6, 10);
        let mut out: Vec<f32> = Vec::new();
        matmul(&a, &[], &mut out, 2, 3, 0, &pool);
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
}
