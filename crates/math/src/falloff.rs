//! [`gaussian_falloff`]: a splat's `exp(power)` with no libm call.

/// log2 of the table size `N`.
const TABLE_BITS: u32 = 5;

/// `N = 32` table entries.
const N: u64 = 1 << TABLE_BITS;

/// `asuint64(2^(i/N)) − (i << (52 − TABLE_BITS))`: adding `k << 47` to
/// entry `k mod N` yields `2^(k/N)` for any integer `k` in range.
const TABLE: [u64; N as usize] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `N / ln 2` = `0x1.71547652b82fep0 · 32` (bits `0x40471547652b82fe`;
/// the decimal literals here round to exactly the glibc bit patterns,
/// which `constants_are_glibcs_bit_patterns` checks).
const INV_LN2_N: f64 = 46.16624130844683;

/// `INV_LN2_N` with its low 28 mantissa bits cleared (`0x4047154760000000`):
/// 25 significant bits, so its product with a 24-bit `f32` is exact in
/// `f64`.
const INV_LN2_N_HI: f64 = 46.16624069213867;

/// `INV_LN2_N − INV_LN2_N_HI`, exactly (`0x3ea4ae0bf8000000`).
const INV_LN2_N_LO: f64 = 6.163081565091488e-7;

/// `0x1.8p52`: adding it rounds a double of magnitude below 2⁵¹ to an
/// integer (ties to even) held in the low mantissa bits.
const SHIFT: f64 = 6755399441055744.0;

/// Cubic coefficients of `2^(r/N)`: `0x1.c6af84b912394p-5 / N³`,
/// `0x1.ebfce50fac4f3p-3 / N²` and `0x1.62e42ff0c52d6p-1 / N`.
const C0: f64 = 1.6938359250920212e-6;
const C1: f64 = 0.00023459809789509004;
const C2: f64 = 0.021660849396613134;

/// Below `log(2⁻¹⁵⁰) ≈ −103.97` every `expf` rounds to `+0.0`; clamping
/// there keeps `k` in the table's range.
const UNDERFLOW: f32 = -104.0;

/// Gaussian falloff of a splat power `−½ dᵀ Σ⁻¹ d`: `1.0` when
/// `power > 0` (a rounding artefact at the centre, also `+inf`), else
/// `power.exp()`, bit for bit as libm computes it; `−inf` and anything
/// below `−103.97` give `0.0`, and a NaN comes back as a NaN.
///
/// Raster evaluates one falloff per alpha, millions per frame. An
/// out-of-line libm `expf` call per alpha keeps the compositing kernel
/// scalar, so this writes glibc's `expf` algorithm
/// (`sysdeps/ieee754/flt-32/e_expf.c`, from ARM's optimized-routines) out
/// in plain `f64` arithmetic: write `x·32/ln 2 = k + r` with integer `k`
/// and `|r| ≤ ½`, so `exp(x) = 2^(k/32) · 2^(r/32)`. `2^(k/32)` is a table
/// entry for `k mod 32` with `k` shifted into its exponent field, and
/// `2^(r/32)` is a cubic in `r`; the product is rounded once to `f32`.
///
/// glibc's x86-64 build runs this code with fused multiply-adds on a CPU
/// that has them. Splitting `32/ln 2` into a 25-bit `hi` (so `hi·x` is
/// exact) plus `lo` reproduces the fused reduction in plain arithmetic,
/// and the result then equals libm's `f32::exp` bit for bit on every
/// non-positive `f32`; the `#[ignore]`d test `matches_libm_exhaustively`
/// checks all 2³² inputs. Without the split one input differs:
/// `x = −63.09946` (`0xc27c65d9`), whose exact `exp` lies 0.0001 ulp
/// below halfway between two `f32`s. The fused reduction rounds it up, the
/// unfused one down (to the nearer of the two). glibc's build for CPUs
/// without FMA takes the unfused path too, so on such a CPU the tests
/// that compare with libm fail at that one input; the value this function
/// returns does not depend on the CPU.
///
/// Branch-free: both cases are clamps (`power` into `[−104, 0]`, and
/// `exp(0)` is exactly `1.0`), written as the compare-and-select form
/// x86's `maxps`/`minps` implement, so a NaN passes both and propagates
/// through the arithmetic with its sign and payload, quieted, as libm's
/// `x + x` returns it. The one memory access is the table load. A loop
/// over a fixed-size array of powers calling this compiles to packed SIMD
/// at the baseline x86-64 target.
#[inline]
pub fn gaussian_falloff(power: f32) -> f32 {
    // Two separate selects, each a `maxps`/`minps`; an `else if` chain or a
    // NaN branch here makes LLVM emit per-lane jumps instead.
    let x = if power < UNDERFLOW { UNDERFLOW } else { power };
    let x = f64::from(if x > 0.0 { 0.0 } else { x });
    // x·N/ln 2 = k + r with integer k and |r| ≤ ½.
    let kd = INV_LN2_N * x + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = (INV_LN2_N_HI * x - kd) + INV_LN2_N_LO * x;
    // exp(x) = 2^(k/N) · 2^(r/N) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let s = f64::from_bits(TABLE[(ki % N) as usize].wrapping_add(ki << (52 - TABLE_BITS)));
    let y = (C0 * r + C1) * (r * r) + (C2 * r + 1.0);
    (y * s) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `Conic2::gaussian_weight` computed with libm.
    fn reference(x: f32) -> f32 {
        if x > 0.0 {
            1.0
        } else {
            x.exp()
        }
    }

    fn assert_matches(bits: u32) {
        let x = f32::from_bits(bits);
        assert_eq!(
            gaussian_falloff(x).to_bits(),
            reference(x).to_bits(),
            "gaussian_falloff({x:e}) [{bits:#010x}]"
        );
    }

    #[test]
    fn constants_are_glibcs_bit_patterns() {
        let bits = [INV_LN2_N, INV_LN2_N_HI, INV_LN2_N_LO, SHIFT, C0, C1, C2].map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x4047_1547_652b_82fe,
                0x4047_1547_6000_0000,
                0x3ea4_ae0b_f800_0000,
                0x4338_0000_0000_0000,
                0x3ebc_6af8_4b91_2394,
                0x3f2e_bfce_50fa_c4f3,
                0x3f96_2e42_ff0c_52d6,
            ]
        );
        assert_eq!(INV_LN2_N_HI + INV_LN2_N_LO, INV_LN2_N);
        assert_eq!(INV_LN2_N_HI.to_bits() & 0xfff_ffff, 0);
        for (i, &t) in TABLE.iter().enumerate() {
            let entry = f64::from_bits(t + ((i as u64) << (52 - TABLE_BITS)));
            assert!((entry - (i as f64 / N as f64).exp2()).abs() <= 2.3e-16);
        }
    }

    #[test]
    fn named_inputs_match_libm() {
        let named = [
            0.0f32.to_bits(),
            (-0.0f32).to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            f32::NAN.to_bits(),
            (-f32::NAN).to_bits(),
            0x7f80_0001, // signalling NaN, comes back quieted
            0xffc0_1234,
            f32::MIN_POSITIVE.to_bits(),
            (-f32::MIN_POSITIVE).to_bits(),
            1, // smallest positive subnormal
            0x8000_0001,
            (-1.0f32).to_bits(),
            // the one input an unsplit `N / ln 2` rounds differently
            0xc27c_65d9,
            // around the normal/subnormal output boundary, ln 2⁻¹²⁶
            (-87.33654f32).to_bits(),
            (-87.33655f32).to_bits(),
            // around the last nonzero output, ln 2⁻¹⁵⁰
            (-103.97207f32).to_bits(),
            (-103.97208f32).to_bits(),
            (-103.97209f32).to_bits(),
            (-104.0f32).to_bits(),
            (-104.00001f32).to_bits(),
            f32::MIN.to_bits(),
        ];
        for bits in named {
            assert_matches(bits);
        }
        assert_eq!(gaussian_falloff(0.0), 1.0);
        assert_eq!(gaussian_falloff(f32::INFINITY), 1.0);
        assert_eq!(gaussian_falloff(f32::NEG_INFINITY).to_bits(), 0);
    }

    #[test]
    fn subnormal_outputs_match_libm() {
        // exp(x) is subnormal from −87.34 down to −103.97 and rounds to
        // zero below; walk that range and a margin on each side.
        let (lo, hi) = ((-104.5f32).to_bits(), (-87.0f32).to_bits());
        for bits in (hi..=lo).step_by(61) {
            assert_matches(bits);
        }
    }

    #[test]
    fn strided_bit_patterns_match_libm() {
        // An odd stride that is not a power of two reaches every exponent
        // and varied mantissa bits of both signs, including NaNs.
        for bits in (0..=u32::MAX).step_by(1031) {
            assert_matches(bits);
        }
    }

    #[test]
    #[ignore = "all 2^32 inputs; run in release: cargo test --release -p ms-math -- --ignored"]
    fn matches_libm_exhaustively() {
        // Eight lanes per iteration in one straight-line loop, the shape
        // Raster evaluates them in, so a release build checks the
        // vectorized code; two threads, one per half of the patterns.
        let half = |top: u32| {
            let mut bad = 0u64;
            for base in (u64::from(top) << 31..(u64::from(top) + 1) << 31).step_by(8) {
                let mut powers = [0.0f32; 8];
                for (lane, p) in powers.iter_mut().enumerate() {
                    *p = f32::from_bits((base + lane as u64) as u32);
                }
                let mut got = [0.0f32; 8];
                for (g, &p) in got.iter_mut().zip(&powers) {
                    *g = gaussian_falloff(p);
                }
                for (g, &p) in got.iter().zip(&powers) {
                    if g.to_bits() != reference(p).to_bits() {
                        bad += 1;
                        if bad <= 8 {
                            eprintln!("mismatch at {:#010x}", p.to_bits());
                        }
                    }
                }
            }
            bad
        };
        let bad = std::thread::scope(|sc| {
            let upper = sc.spawn(|| half(1));
            half(0) + upper.join().unwrap()
        });
        assert_eq!(bad, 0, "inputs where gaussian_falloff differs from libm");
    }
}
