//! A branch-free `f32` exponential the compiler vectorises, and the
//! activations built on it (`tanh`, sigmoid; GELU and softmax in
//! [`crate::ops`]).
//!
//! libm's `expf`/`tanhf` are accurate to an ulp but are opaque calls: a loop
//! over them runs one element at a time, ~20 ns each, which made GELU cost
//! more than the matmul feeding it. [`exp`] is straight-line arithmetic —
//! range reduction by a magic-constant round, a degree-6 polynomial, the
//! exponent put back with a shift — so a loop over it becomes 4- or 8-lane
//! SIMD code at about 1 ns per element.
//!
//! # Lane identity
//!
//! Every operation in here is a single IEEE-754 `f32` add, subtract,
//! multiply, divide, compare-select or integer op. None is fused (Rust never
//! contracts `a * b + c` into an FMA on its own, and no FMA intrinsic is
//! used), so an element gets the same bits whether the compiler put it in an
//! AVX2 lane, an SSE2 lane or a scalar remainder loop. [`map_lanes`] only
//! chooses how wide the loop is compiled, never what it computes — which is
//! what keeps `gelu_map` / `softmax_rows` bitwise independent of chunking,
//! thread count and CPU.
//!
//! # Error bounds (pinned by `tests/approx_accuracy.rs`)
//!
//! | function | domain | bound vs `f64` libm |
//! | --- | --- | --- |
//! | [`exp`] | `[-87, 88]` | relative error ≤ 5e-7 |
//! | `gelu_scalar` | `[-12, 12]` | absolute error ≤ 2e-6 |
//! | [`tanh`], [`sigmoid`] | all finite `x` | absolute error ≤ 5e-7 |

/// `1.5 · 2²³`: adding it to `t` with `|t| < 2²²` leaves `round(t)` in the
/// low mantissa bits (the sum's ulp is exactly 1), subtracting it again
/// gives `round(t)` as a float.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// Inputs are clamped to `[EXP_LO, EXP_HI]`; at the ends the rounded
/// exponent is −127 / +128, whose reassembled scale is exactly `0.0` / `+∞`.
const EXP_LO: f32 = -88.0;
const EXP_HI: f32 = 89.0;
/// `ln 2` split so that `n · LN2_HI` is exact for every `|n| ≤ 128`: the
/// high part has nine significant bits (0.693359375).
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `eˣ` without a branch or a libm call.
///
/// Exact at the edges that matter: `exp(±0) = 1`, `exp(−∞) = 0`,
/// `exp(+∞) = +∞`, NaN propagates, and a subnormal `x` gives exactly `1`.
/// The result underflows to `0` below `x ≈ −87.68` (libm would still return
/// a subnormal) and overflows to `+∞` above `x ≈ 88.38` (libm: 88.72).
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Comparisons, not `f32::min`/`max`: those would swallow a NaN.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    // n = round(x / ln 2), r = x − n·ln 2 ∈ [−ln2/2, ln2/2].
    let shifted = x * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // eʳ ≈ 1 + r + r²·q(r): near-minimax q, 1.1e-8 relative before rounding.
    let q = 1.392_618_4e-3;
    let q = q * r + 8.363_179e-3;
    let q = q * r + 4.166_655_6e-2;
    let q = q * r + 1.666_657_6e-1;
    let q = q * r + 0.5;
    let p = (q * r) * r + r + 1.0;
    // 2ⁿ: `shifted`'s bits are `0x4B40_0000 + n`, so (bits + 127) << 23
    // drops everything but the biased exponent `n + 127 ∈ [0, 255]`.
    let scale = f32::from_bits(shifted.to_bits().wrapping_add(127) << 23);
    p * scale
}

/// `tanh x = 1 − 2 / (1 + e²ˣ)`; saturates to exactly `±1` for `|x| ≳ 9`.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    1.0 - 2.0 / (1.0 + exp(2.0 * x))
}

/// Logistic sigmoid `1 / (1 + e⁻ˣ)`.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// `data[i] = f(data[i])` for every element, compiled as wide as the CPU
/// allows: the same loop body is instantiated once for baseline codegen and
/// once inside an AVX2-enabled function (runtime-detected). `f` must be
/// straight-line arithmetic for the loop to vectorise; see the module docs
/// for why both instantiations produce identical bits.
#[inline]
pub fn map_lanes(data: &mut [f32], f: impl Fn(f32) -> f32 + Copy) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the required CPU feature was just detected.
            unsafe {
                return map_lanes_avx2(data, f);
            }
        }
    }
    map_lanes_body(data, f);
}

#[inline(always)]
fn map_lanes_body(data: &mut [f32], f: impl Fn(f32) -> f32) {
    for v in data.iter_mut() {
        *v = f(*v);
    }
}

/// [`map_lanes_body`] compiled with 256-bit vectors.
///
/// # Safety
///
/// The caller must guarantee the `avx2` CPU feature is present; the only
/// call site dispatches through `is_x86_feature_detected!`. The body is safe
/// code over a slice, so there is no other obligation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_lanes_avx2(data: &mut [f32], f: impl Fn(f32) -> f32) {
    map_lanes_body(data, f);
}
