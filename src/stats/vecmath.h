// Deterministic, vectorization-safe transcendentals.
//
// The SIMD epoch kernels need exp/sin/cos inside `#pragma omp simd`
// loops. libm's implementations cannot be used there: they are opaque
// calls (no vector clones without -mveclibabi), and even where vector
// variants exist they are not bit-identical to the scalar entry points.
// Instead the hot paths -- scalar reference and vector kernel alike --
// share the branchless polynomial implementations below, so the "same
// math" guarantee of the differential tier holds bit for bit:
//
//   * plain +, -, *, / only, no std::fma and no branches (ternaries
//     compile to blends/cmov). The tree is compiled with
//     -ffp-contract=off, so the compiler cannot contract a*b+c into an
//     FMA in one build and not another: every operation sequence below
//     evaluates identically whether it runs in a scalar call, a
//     vectorized lane, a UNILOC_NO_SIMD fallback build, or another
//     IEEE-754 platform.
//   * accuracy ~2 ulp against libm over the argument ranges the pipeline
//     produces (det_exp: all finite x; det_sincos: |x| <= a few pi --
//     the particle headings are wrap_angle()d into (-pi, pi]).
//
// Switching stats::normal_pdf (and the fusion/particle kernels) onto
// these functions changed every trace by ~1 ulp per epoch, which the
// chaotic particle filter amplifies over a walk; the golden traces were
// regenerated once (UNILOC_UPDATE_GOLDEN=1) when this landed. From then
// on every build -- SIMD, scalar-mode, UNILOC_NO_SIMD -- reproduces the
// committed traces bit-identically, which is what lets the differential
// harness stay tolerance-free (DESIGN.md section 16).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace uniloc::stats {

// `#pragma omp simd` spelled as a macro so kernels compile warning-free
// in UNILOC_NO_SIMD builds (which omit -fopenmp-simd).
// UNILOC_PRAGMA_SIMD_REDUCTION(op, var) is `#pragma omp simd
// reduction(op : var)` under the same guard; keep it to integer
// reductions, which are exact in any lane order.
#if defined(UNILOC_NO_SIMD)
#define UNILOC_PRAGMA_SIMD
#define UNILOC_PRAGMA_SIMD_REDUCTION(op, var)
#else
#define UNILOC_PRAGMA_SIMD _Pragma("omp simd")
#define UNILOC_PRAGMA_SIMD_REDUCTION(op, var) \
  _Pragma(UNILOC_PRAGMA_STR(omp simd reduction(op : var)))
#define UNILOC_PRAGMA_STR(x) #x
#endif

namespace detail {

/// 1.5 * 2^52: adding it rounds an |x| < 2^51 double to integer with the
/// mantissa low bits holding the two's-complement integer value -- the
/// branchless (and convert-free, hence trivially vectorizable)
/// round-to-nearest used by the range reductions below.
inline constexpr double kRoundShift = 6755399441055744.0;

/// 2^e for an integral e in [-1075, 1025] held in a double, by building
/// the IEEE bit pattern directly. Exponents below -1022 are handled by
/// the callers splitting e in halves.
inline double pow2_int(double e) {
  const std::int64_t i = std::bit_cast<std::int64_t>(e + kRoundShift) -
                         std::bit_cast<std::int64_t>(kRoundShift);
  return std::bit_cast<double>((i + 1023) << 52);
}

}  // namespace detail

/// static_cast<double>(v) for v <= 2^53, in operations AVX2 has: it has
/// no u64 -> f64 convert, so a plain cast keeps a whole loop scalar. v is
/// split into its bits from 26 up (at most 2^27) and its low 26 bits;
/// each half is read exactly off the mantissa of 2^52 + half, and
/// hi * 2^26 + lo is exact because the sum is v itself, which has at most
/// 53 significant bits. Equal to the cast for every such v.
inline double u53_to_double(std::uint64_t v) {
  constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;  // 2^52
  constexpr double kTwo52 = 4503599627370496.0;
  const double hi = std::bit_cast<double>(kTwo52Bits | (v >> 26)) - kTwo52;
  const double lo =
      std::bit_cast<double>(kTwo52Bits | (v & 0x3FFFFFFULL)) - kTwo52;
  return hi * 67108864.0 + lo;
}

/// Deterministic exp(x). Branchless Cody-Waite reduction (x = k ln2 + r,
/// |r| <= ln2/2) + degree-13 Taylor Horner evaluation, 2^k by exponent
/// construction. Correct limits: +inf -> +inf, -inf -> 0, NaN -> NaN,
/// overflow -> +inf, underflow -> gradual to 0.
inline double det_exp(double x) {
  constexpr double kLog2e = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;

  // Clamp the scaled argument so k stays in range; the first ternary is
  // written to also swallow NaN/-inf (comparison false -> constant).
  double t = x * kLog2e;
  t = t > -1075.0 ? t : -1075.0;
  t = t < 1025.0 ? t : 1025.0;
  const double k = (t + detail::kRoundShift) - detail::kRoundShift;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;

  // exp(r) = sum r^i / i!, i = 0..13 (|r| <= 0.3466 -> remainder < 5e-18).
  double p = 1.0 / 6227020800.0;
  p = p * r + 1.0 / 479001600.0;
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;

  // 2^k in two powers so k down to -1075 (subnormal results) stays
  // representable; both halves are normal powers of two, so the only
  // rounding is the final (possibly subnormal) multiply.
  const double k1 = (k * 0.5 + detail::kRoundShift) - detail::kRoundShift;
  const double k2 = k - k1;
  double res = p * detail::pow2_int(k1) * detail::pow2_int(k2);

  // Out-of-range x (including +/-inf) bypassed the reduction's accuracy;
  // pin the limits. NaN fails both comparisons and flows through.
  res = x > 709.782712893384 ? std::numeric_limits<double>::infinity() : res;
  res = x < -745.2 ? 0.0 : res;
  return res;
}

/// Deterministic simultaneous sin/cos. Branchless pi/2 reduction with
/// quadrant selection; accurate (~2 ulp) for |x| up to a few hundred,
/// self-consistent (but inaccurate vs libm) beyond. NaN propagates.
inline void det_sincos(double x, double& sin_out, double& cos_out) {
  constexpr double kTwoOverPi = 6.36619772367581382433e-01;
  constexpr double kPio2Hi = 1.57079632679489655800e+00;
  constexpr double kPio2Lo = 6.12323399573676603587e-17;

  double t = x * kTwoOverPi;
  t = t > -4.5e15 ? t : 0.0;  // swallow -inf/NaN: j := 0, r goes NaN.
  t = t < 4.5e15 ? t : 0.0;
  const double tr = t + detail::kRoundShift;
  const double j = tr - detail::kRoundShift;
  const std::int64_t q = std::bit_cast<std::int64_t>(tr) & 3;
  const double r = (x - j * kPio2Hi) - j * kPio2Lo;
  const double w = r * r;

  // sin(r)/r and cos(r) Taylor series on |r| <= pi/4 (+rounding slack).
  double ps = 1.0 / 1307674368000.0;
  ps = ps * w - 1.0 / 6227020800.0;
  ps = ps * w + 1.0 / 39916800.0;
  ps = ps * w - 1.0 / 362880.0;
  ps = ps * w + 1.0 / 5040.0;
  ps = ps * w - 1.0 / 120.0;
  ps = ps * w + 1.0 / 6.0;
  const double sr = r - r * (w * ps);

  double pc = -1.0 / 87178291200.0;
  pc = pc * w + 1.0 / 479001600.0;
  pc = pc * w - 1.0 / 3628800.0;
  pc = pc * w + 1.0 / 40320.0;
  pc = pc * w - 1.0 / 720.0;
  pc = pc * w + 1.0 / 24.0;
  pc = pc * w - 0.5;
  const double cr = 1.0 + w * pc;

  // x = j*pi/2 + r: quadrant q swaps and/or negates the pair.
  const bool swap = (q & 1) != 0;
  const double ssel = swap ? cr : sr;
  const double csel = swap ? sr : cr;
  sin_out = q >= 2 ? -ssel : ssel;
  cos_out = (q == 1 || q == 2) ? -csel : csel;
}

/// Deterministic ln(x) for positive normal x (the Box-Muller uniforms are
/// in [2^-53, 1], so subnormal/zero/negative handling is not needed; such
/// inputs produce garbage, not traps). Reduction x = 2^e * m with m in
/// [sqrt(2)/2, sqrt(2)), then ln(m) = 2 atanh(s), s = (m-1)/(m+1), by a
/// degree-9 odd series in s^2 (|s| <= 0.172 -> truncation ~1e-15
/// relative). Same determinism rules as det_exp: plain arithmetic,
/// ternary selects, no libm.
inline double det_log(double x) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kSqrt2 = 1.41421356237309514547e+00;

  const std::int64_t bits = std::bit_cast<std::int64_t>(x);
  // The exponent fits 32 bits; an i32 -> f64 convert vectorizes on AVX2,
  // an i64 -> f64 one does not (same value either way).
  double e = static_cast<double>(
      static_cast<std::int32_t>(((bits >> 52) & 0x7FF) - 1023));
  double m = std::bit_cast<double>(
      (bits & 0x000FFFFFFFFFFFFFLL) | 0x3FF0000000000000LL);
  // Shift the mantissa window from [1, 2) to [sqrt(2)/2, sqrt(2)) so s
  // stays small on both sides of 1.
  const bool high = m >= kSqrt2;
  m = high ? m * 0.5 : m;
  e = high ? e + 1.0 : e;

  const double s = (m - 1.0) / (m + 1.0);
  const double s2 = s * s;
  double p = 1.0 / 19.0;
  p = p * s2 + 1.0 / 17.0;
  p = p * s2 + 1.0 / 15.0;
  p = p * s2 + 1.0 / 13.0;
  p = p * s2 + 1.0 / 11.0;
  p = p * s2 + 1.0 / 9.0;
  p = p * s2 + 1.0 / 7.0;
  p = p * s2 + 1.0 / 5.0;
  p = p * s2 + 1.0 / 3.0;
  p = p * s2 + 1.0;
  const double ln_m = 2.0 * s * p;
  return e * kLn2Hi + (ln_m + e * kLn2Lo);
}

/// Deterministic standard-normal pair from two raw engine words
/// (Box-Muller). u1 = ((a >> 11) + 1) * 2^-53 in (0, 1] keeps the log
/// argument away from zero; u2 = (b >> 11) * 2^-53 in [0, 1) spins the
/// angle. A pure function of the two words built entirely from det_log /
/// det_sincos / IEEE sqrt, so the normal stream consumed by the particle
/// filter is bit-identical in scalar and vectorized builds -- and on any
/// IEEE-754 platform, unlike std::normal_distribution, whose algorithm
/// is implementation-defined. The word-to-double casts go through
/// u53_to_double and the function is forced inline, so the predict loop
/// that calls it vectorizes (GCC 12 otherwise keeps it an outlined call).
[[gnu::always_inline]] inline void det_normal_pair(std::uint64_t a,
                                                   std::uint64_t b,
                                                   double& z0, double& z1) {
  constexpr double kTwoPow53Inv = 1.0 / 9007199254740992.0;
  constexpr double kTwoPi = 6.28318530717958647693e+00;
  const double u1 = u53_to_double((a >> 11) + 1) * kTwoPow53Inv;
  const double u2 = u53_to_double(b >> 11) * kTwoPow53Inv;
  const double r = std::sqrt(-2.0 * det_log(u1));
  double s, c;
  det_sincos(kTwoPi * u2, s, c);
  z0 = r * c;
  z1 = r * s;
}

}  // namespace uniloc::stats
