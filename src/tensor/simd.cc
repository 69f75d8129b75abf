#include "tensor/simd.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "base/logging.hh"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define ERNN_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define ERNN_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ernn::simd
{

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Avx2:
        return "avx2";
      case Level::Neon:
        return "neon";
    }
    return "unknown";
}

bool
supported(Level level)
{
    switch (level) {
      case Level::Scalar:
        return true;
      case Level::Avx2:
#if ERNN_SIMD_X86
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      case Level::Neon:
#if ERNN_SIMD_NEON
        return true;
#else
        return false;
#endif
    }
    return false;
}

Level
detect()
{
    if (supported(Level::Avx2))
        return Level::Avx2;
    if (supported(Level::Neon))
        return Level::Neon;
    return Level::Scalar;
}

bool
parseLevel(const std::string &text, Level &out, bool &isAuto)
{
    isAuto = false;
    if (text == "auto") {
        isAuto = true;
        return true;
    }
    if (text == "scalar") {
        out = Level::Scalar;
        return true;
    }
    if (text == "avx2") {
        out = Level::Avx2;
        return true;
    }
    if (text == "neon") {
        out = Level::Neon;
        return true;
    }
    return false;
}

namespace
{

Level
resolveInitial()
{
    const Level best = detect();
    const char *env = std::getenv("ERNN_SIMD");
    if (!env || !*env)
        return best;
    Level requested = best;
    bool isAuto = false;
    if (!parseLevel(env, requested, isAuto)) {
        ernn_warn("ERNN_SIMD=" << env << " not understood "
                  "(scalar|avx2|neon|auto); using "
                  << levelName(best));
        return best;
    }
    if (isAuto)
        return best;
    if (!supported(requested)) {
        ernn_warn("ERNN_SIMD=" << env << " not supported by this "
                  "CPU; using " << levelName(best));
        return best;
    }
    return requested;
}

std::atomic<Level> &
activeSlot()
{
    static std::atomic<Level> slot{resolveInitial()};
    return slot;
}

} // namespace

Level
active()
{
    return activeSlot().load(std::memory_order_relaxed);
}

void
setActive(Level level)
{
    ernn_assert(supported(level), "simd::setActive: level "
                << levelName(level) << " unsupported on this CPU");
    activeSlot().store(level, std::memory_order_relaxed);
}

// --- int16 code dot ----------------------------------------------------

std::int64_t
dotCodesScalar(const std::int16_t *w, const std::int16_t *v,
               std::size_t n, std::size_t chunk)
{
    std::int64_t acc = 0;
    std::size_t c = 0;
    while (c < n) {
        const std::size_t end = std::min(n, c + chunk);
        // Accumulate the chunk partial in uint32 so an out-of-spec
        // chunk (beyond safeChunkLen) wraps modularly — exactly what
        // the vector kernels' epi32 adds do — instead of hitting
        // signed-overflow UB. In-spec the partial never overflows
        // and the bits are identical either way.
        std::uint32_t a = 0;
        for (; c < end; ++c)
            a += static_cast<std::uint32_t>(
                static_cast<std::int32_t>(w[c]) *
                static_cast<std::int32_t>(v[c]));
        acc += static_cast<std::int32_t>(a);
    }
    return acc;
}

void
matvecCodesScalar(const std::int16_t *w, std::size_t rows,
                  std::size_t n, const std::int16_t *x,
                  std::int64_t *out, std::size_t chunk)
{
    for (std::size_t r = 0; r < rows; ++r)
        out[r] = dotCodesScalar(w + r * n, x, n, chunk);
}

std::size_t
safeChunkLen(int wb, int vb)
{
    const int pb = wb + vb - 2; // |w*v| <= 2^(wb-1) * 2^(vb-1)
    if (pb >= 30)
        return 1;
    return std::size_t{1} << (30 - pb);
}

#if ERNN_SIMD_X86

namespace
{

/** Widen the eight int32 lanes of @p a and fold them into the four
 *  int64 lanes of @p acc. */
__attribute__((target("avx2"))) inline __m256i
foldInt32To64(__m256i acc, __m256i a)
{
    acc = _mm256_add_epi64(acc,
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(a)));
    return _mm256_add_epi64(acc,
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(a, 1)));
}

__attribute__((target("avx2"))) std::int64_t
dotCodesAvx2(const std::int16_t *w, const std::int16_t *v,
             std::size_t n, std::size_t chunk)
{
    // chunk == 1 means both formats are 16-bit: a single pmaddwd
    // pair could already overflow int32, so only the one-term-chunk
    // scalar path is provably safe.
    if (chunk < 2)
        return dotCodesScalar(w, v, n, chunk);

    // Each madd lane holds two products (|p| <= 2^pb each), so one
    // madd result is bounded by 2^(pb+1) and chunk/2 of them stay
    // within +-2^30 — the same bound the scalar chunk proves, with
    // the pair folded one level earlier.
    const std::size_t maxMadds = chunk / 2;
    __m256i acc64 = _mm256_setzero_si256();
    // Two independent int32 accumulators hide the madd/add latency
    // chain; each one holds at most maxMadds madd results, so each
    // is bounded exactly as the single-accumulator proof above.
    __m256i accA = _mm256_setzero_si256();
    __m256i accB = _mm256_setzero_si256();
    std::size_t madds = 0;
    std::size_t c = 0;
    for (; c + 32 <= n; c += 32) {
        const __m256i w0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + c));
        const __m256i x0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + c));
        const __m256i w1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + c + 16));
        const __m256i x1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + c + 16));
        accA = _mm256_add_epi32(accA, _mm256_madd_epi16(w0, x0));
        accB = _mm256_add_epi32(accB, _mm256_madd_epi16(w1, x1));
        if (++madds == maxMadds) {
            acc64 = foldInt32To64(acc64, accA);
            acc64 = foldInt32To64(acc64, accB);
            accA = _mm256_setzero_si256();
            accB = _mm256_setzero_si256();
            madds = 0;
        }
    }
    for (; c + 16 <= n; c += 16) {
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + c));
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + c));
        accA = _mm256_add_epi32(accA, _mm256_madd_epi16(wv, xv));
        if (++madds == maxMadds) {
            acc64 = foldInt32To64(acc64, accA);
            accA = _mm256_setzero_si256();
            madds = 0;
        }
    }
    acc64 = foldInt32To64(acc64, accA);
    acc64 = foldInt32To64(acc64, accB);

    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc64);
    std::int64_t acc = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; c < n; ++c)
        acc += static_cast<std::int64_t>(w[c]) * v[c];
    return acc;
}

/**
 * Four weight rows against one x, 16 codes per step: one x load
 * feeds four madds (w comes in as memory operands), so the load
 * ports stop being the bottleneck. Each row keeps its own int32 and
 * int64 accumulator with the standard fold cadence, so each row's
 * sum is the exact integer the scalar per-row chunked loop produces.
 */
__attribute__((target("avx2"))) void
matvecCodes4Avx2(const std::int16_t *w0, const std::int16_t *w1,
                 const std::int16_t *w2, const std::int16_t *w3,
                 const std::int16_t *x, std::size_t n,
                 std::size_t chunk, std::int64_t *out)
{
    const std::size_t maxMadds = chunk / 2;
    __m256i a32[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                      _mm256_setzero_si256(), _mm256_setzero_si256()};
    __m256i a64[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                      _mm256_setzero_si256(), _mm256_setzero_si256()};
    std::size_t madds = 0;
    std::size_t c = 0;
    for (; c + 16 <= n; c += 16) {
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(x + c));
        a32[0] = _mm256_add_epi32(
            a32[0], _mm256_madd_epi16(xv, _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(w0 + c))));
        a32[1] = _mm256_add_epi32(
            a32[1], _mm256_madd_epi16(xv, _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(w1 + c))));
        a32[2] = _mm256_add_epi32(
            a32[2], _mm256_madd_epi16(xv, _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(w2 + c))));
        a32[3] = _mm256_add_epi32(
            a32[3], _mm256_madd_epi16(xv, _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(w3 + c))));
        if (++madds == maxMadds) {
            for (int r = 0; r < 4; ++r) {
                a64[r] = foldInt32To64(a64[r], a32[r]);
                a32[r] = _mm256_setzero_si256();
            }
            madds = 0;
        }
    }
    const std::int16_t *rowsPtr[4] = {w0, w1, w2, w3};
    for (int r = 0; r < 4; ++r) {
        a64[r] = foldInt32To64(a64[r], a32[r]);
        alignas(32) std::int64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes),
                           a64[r]);
        std::int64_t acc =
            lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for (std::size_t t = c; t < n; ++t)
            acc += static_cast<std::int64_t>(rowsPtr[r][t]) * x[t];
        out[r] = acc;
    }
}

__attribute__((target("avx2"))) void
matvecCodesAvx2(const std::int16_t *w, std::size_t rows,
                std::size_t n, const std::int16_t *x,
                std::int64_t *out, std::size_t chunk)
{
    if (chunk < 2) {
        matvecCodesScalar(w, rows, n, x, out, chunk);
        return;
    }
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4)
        matvecCodes4Avx2(w + (r + 0) * n, w + (r + 1) * n,
                         w + (r + 2) * n, w + (r + 3) * n, x, n,
                         chunk, out + r);
    for (; r < rows; ++r)
        out[r] = dotCodesAvx2(w + r * n, x, n, chunk);
}

} // namespace

#endif // ERNN_SIMD_X86

#if ERNN_SIMD_NEON

namespace
{

std::int64_t
dotCodesNeon(const std::int16_t *w, const std::int16_t *v,
             std::size_t n, std::size_t chunk)
{
    // vmull_s16 widens to int32 before any accumulation and the
    // pairwise-add folds straight into int64, so no chunk bound is
    // needed: every partial already lives in 64 bits.
    (void)chunk;
    int64x2_t acc64 = vdupq_n_s64(0);
    std::size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        const int16x8_t wv = vld1q_s16(w + c);
        const int16x8_t xv = vld1q_s16(v + c);
        const int32x4_t lo = vmull_s16(vget_low_s16(wv),
                                       vget_low_s16(xv));
        const int32x4_t hi = vmull_s16(vget_high_s16(wv),
                                       vget_high_s16(xv));
        acc64 = vaddq_s64(acc64, vpaddlq_s32(lo));
        acc64 = vaddq_s64(acc64, vpaddlq_s32(hi));
    }
    std::int64_t acc = vgetq_lane_s64(acc64, 0) +
                       vgetq_lane_s64(acc64, 1);
    for (; c < n; ++c)
        acc += static_cast<std::int64_t>(w[c]) * v[c];
    return acc;
}

} // namespace

#endif // ERNN_SIMD_NEON

DotCodesFn
dotCodesFnFor(Level level)
{
#if ERNN_SIMD_X86
    if (level == Level::Avx2)
        return &dotCodesAvx2;
#endif
#if ERNN_SIMD_NEON
    if (level == Level::Neon)
        return &dotCodesNeon;
#endif
    (void)level;
    return &dotCodesScalar;
}

DotCodesFn
dotCodesFn()
{
    return dotCodesFnFor(active());
}

#if ERNN_SIMD_NEON

namespace
{

void
matvecCodesNeon(const std::int16_t *w, std::size_t rows,
                std::size_t n, const std::int16_t *x,
                std::int64_t *out, std::size_t chunk)
{
    for (std::size_t r = 0; r < rows; ++r)
        out[r] = dotCodesNeon(w + r * n, x, n, chunk);
}

} // namespace

#endif // ERNN_SIMD_NEON

MatvecCodesFn
matvecCodesFnFor(Level level)
{
#if ERNN_SIMD_X86
    if (level == Level::Avx2)
        return &matvecCodesAvx2;
#endif
#if ERNN_SIMD_NEON
    if (level == Level::Neon)
        return &matvecCodesNeon;
#endif
    (void)level;
    return &matvecCodesScalar;
}

MatvecCodesFn
matvecCodesFn()
{
    return matvecCodesFnFor(active());
}

// --- f64 GEMM ----------------------------------------------------------

namespace
{

constexpr std::size_t kRowTile = 4;
constexpr std::size_t kLaneTile = 4;

/**
 * Remainder rows/lanes of the tiled f64 GEMM: plain lane-tiled
 * loops, one accumulator chain per (r, l) over ascending c. Shared
 * by the scalar and AVX2 cores so the tails are literally the same
 * code.
 */
void
gemmF64Tail(const Real *w, std::size_t rows, std::size_t cols,
            const Real *xd, Real *yd, std::size_t lanes,
            std::size_t full_r, std::size_t full_l)
{
    Real racc[kLaneTile];
    for (std::size_t r = 0; r < rows; ++r) {
        const Real *row = w + r * cols;
        const std::size_t l_start = r < full_r ? full_l : 0;
        for (std::size_t l0 = l_start; l0 < lanes; l0 += kLaneTile) {
            const std::size_t lt = std::min(kLaneTile, lanes - l0);
            for (std::size_t l = 0; l < lt; ++l)
                racc[l] = 0.0;
            for (std::size_t c = 0; c < cols; ++c) {
                const Real wv = row[c];
                const Real *xr = xd + c * lanes + l0;
                for (std::size_t l = 0; l < lt; ++l)
                    racc[l] += wv * xr[l];
            }
            Real *yr = yd + r * lanes + l0;
            for (std::size_t l = 0; l < lt; ++l)
                yr[l] += racc[l];
        }
    }
}

} // namespace

void
gemmAccF64Scalar(const Real *w, std::size_t rows, std::size_t cols,
                 const Real *xd, Real *yd, std::size_t lanes)
{
    // Register-blocked: a kRowTile x kLaneTile block of accumulators
    // walks the reduction dimension once, so X streams through the
    // cache once per *four* weight rows instead of once per row, and
    // each weight element is reused across every lane in the tile.
    // Every (r, l) accumulator still sums c ascending in its own
    // scalar chain — exactly matvecAcc's order — which is what keeps
    // batched inference bit-identical to the solo path.
    Real acc[kRowTile][kLaneTile];

    const std::size_t full_r = rows - rows % kRowTile;
    const std::size_t full_l = lanes - lanes % kLaneTile;
    for (std::size_t r0 = 0; r0 < full_r; r0 += kRowTile) {
        const Real *w0 = w + (r0 + 0) * cols;
        const Real *w1 = w + (r0 + 1) * cols;
        const Real *w2 = w + (r0 + 2) * cols;
        const Real *w3 = w + (r0 + 3) * cols;
        for (std::size_t l0 = 0; l0 < full_l; l0 += kLaneTile) {
            for (auto &ar : acc)
                for (auto &a : ar)
                    a = 0.0;
            for (std::size_t c = 0; c < cols; ++c) {
                const Real *xr = xd + c * lanes + l0;
                for (std::size_t l = 0; l < kLaneTile; ++l) {
                    const Real v = xr[l];
                    acc[0][l] += w0[c] * v;
                    acc[1][l] += w1[c] * v;
                    acc[2][l] += w2[c] * v;
                    acc[3][l] += w3[c] * v;
                }
            }
            for (std::size_t i = 0; i < kRowTile; ++i) {
                Real *yr = yd + (r0 + i) * lanes + l0;
                for (std::size_t l = 0; l < kLaneTile; ++l)
                    yr[l] += acc[i][l];
            }
        }
    }

    gemmF64Tail(w, rows, cols, xd, yd, lanes, full_r, full_l);
}

#if ERNN_SIMD_X86

namespace
{

__attribute__((target("avx2"))) void
gemmAccF64Avx2(const Real *w, std::size_t rows, std::size_t cols,
               const Real *xd, Real *yd, std::size_t lanes)
{
    // The scalar tile vectorized across its four lanes: one __m256d
    // accumulator per row of the tile, mul then add per c (never
    // fmadd — one rounding per operation, as the scalar chain
    // rounds), so each lane of each register is the scalar (r, l)
    // chain verbatim.
    const std::size_t full_r = rows - rows % kRowTile;
    const std::size_t full_l = lanes - lanes % kLaneTile;
    for (std::size_t r0 = 0; r0 < full_r; r0 += kRowTile) {
        const Real *w0 = w + (r0 + 0) * cols;
        const Real *w1 = w + (r0 + 1) * cols;
        const Real *w2 = w + (r0 + 2) * cols;
        const Real *w3 = w + (r0 + 3) * cols;
        for (std::size_t l0 = 0; l0 < full_l; l0 += kLaneTile) {
            __m256d a0 = _mm256_setzero_pd();
            __m256d a1 = _mm256_setzero_pd();
            __m256d a2 = _mm256_setzero_pd();
            __m256d a3 = _mm256_setzero_pd();
            for (std::size_t c = 0; c < cols; ++c) {
                const __m256d xr =
                    _mm256_loadu_pd(xd + c * lanes + l0);
                a0 = _mm256_add_pd(
                    a0, _mm256_mul_pd(_mm256_set1_pd(w0[c]), xr));
                a1 = _mm256_add_pd(
                    a1, _mm256_mul_pd(_mm256_set1_pd(w1[c]), xr));
                a2 = _mm256_add_pd(
                    a2, _mm256_mul_pd(_mm256_set1_pd(w2[c]), xr));
                a3 = _mm256_add_pd(
                    a3, _mm256_mul_pd(_mm256_set1_pd(w3[c]), xr));
            }
            const __m256d *accs[kRowTile] = {&a0, &a1, &a2, &a3};
            for (std::size_t i = 0; i < kRowTile; ++i) {
                Real *yr = yd + (r0 + i) * lanes + l0;
                _mm256_storeu_pd(
                    yr, _mm256_add_pd(_mm256_loadu_pd(yr), *accs[i]));
            }
        }
    }

    gemmF64Tail(w, rows, cols, xd, yd, lanes, full_r, full_l);
}

} // namespace

#endif // ERNN_SIMD_X86

GemmF64Fn
gemmAccF64Fn()
{
#if ERNN_SIMD_X86
    if (active() == Level::Avx2)
        return &gemmAccF64Avx2;
#endif
    // NEON keeps the scalar GEMM: aarch64 compilers contract FP
    // mul+add by default, so a NEON core could not promise the
    // oracle's two-roundings-per-term chain. Integer dots have no
    // such hazard, which is why only they get a NEON form.
    return &gemmAccF64Scalar;
}

// --- complex spectra MACs ----------------------------------------------

void
conjMacLanesScalar(Real *acc, const Real *w, const Real *x,
                   std::size_t lanes, std::size_t bins)
{
    const std::size_t m = bins - 1;
    const Real w0 = w[0], wm = w[2 * m];
    for (std::size_t l = 0; l < lanes; ++l) {
        Real *a = acc + 2 * l * bins;
        const Real *xs = x + 2 * l * bins;
        a[0] += w0 * xs[0];
        a[1] += 0.0;
        a[2 * m] += wm * xs[2 * m];
        a[2 * m + 1] += 0.0;
        for (std::size_t k = 1; k < m; ++k) {
            const Real wr = w[2 * k], wi = w[2 * k + 1];
            const Real xr = xs[2 * k], xi = xs[2 * k + 1];
            // conj(w) * x
            a[2 * k] += wr * xr + wi * xi;
            a[2 * k + 1] += wr * xi - wi * xr;
        }
    }
}

void
plainMacLanesScalar(Real *acc, const Real *w, const Real *x,
                    std::size_t lanes, std::size_t bins)
{
    const std::size_t m = bins - 1;
    const Real w0 = w[0], wm = w[2 * m];
    for (std::size_t l = 0; l < lanes; ++l) {
        Real *a = acc + 2 * l * bins;
        const Real *xs = x + 2 * l * bins;
        a[0] += w0 * xs[0];
        a[1] += 0.0;
        a[2 * m] += wm * xs[2 * m];
        a[2 * m + 1] += 0.0;
        for (std::size_t k = 1; k < m; ++k) {
            const Real wr = w[2 * k], wi = w[2 * k + 1];
            const Real xr = xs[2 * k], xi = xs[2 * k + 1];
            a[2 * k] += wr * xr - wi * xi;
            a[2 * k + 1] += wr * xi + wi * xr;
        }
    }
}

#if ERNN_SIMD_X86

namespace
{

/**
 * Two complex bins per 256-bit vector: t1 = [wr*xr, wr*xi],
 * t2 = [wi*xi, wi*xr]. The conj result is [t1.re + t2.re,
 * t1.im - t2.im] = addsub(t1, -t2), the plain result
 * [t1.re - t2.re, t1.im + t2.im] = addsub(t1, t2); both keep the
 * scalar's one-mul-one-add chain per component.
 */
__attribute__((target("avx2"))) void
conjMacLanesAvx2Body(Real *acc, const Real *w, const Real *x,
                     std::size_t lanes, std::size_t bins)
{
    const std::size_t m = bins - 1;
    const Real w0 = w[0], wm = w[2 * m];
    const __m256d sign = _mm256_set1_pd(-0.0);
    for (std::size_t l = 0; l < lanes; ++l) {
        Real *a = acc + 2 * l * bins;
        const Real *xs = x + 2 * l * bins;
        a[0] += w0 * xs[0];
        a[1] += 0.0;
        a[2 * m] += wm * xs[2 * m];
        a[2 * m + 1] += 0.0;
        std::size_t k = 1;
        for (; k + 1 < m; k += 2) {
            const __m256d wv = _mm256_loadu_pd(w + 2 * k);
            const __m256d xv = _mm256_loadu_pd(xs + 2 * k);
            const __m256d t1 =
                _mm256_mul_pd(_mm256_movedup_pd(wv), xv);
            const __m256d t2 =
                _mm256_mul_pd(_mm256_permute_pd(wv, 0xF),
                              _mm256_permute_pd(xv, 0x5));
            const __m256d r =
                _mm256_addsub_pd(t1, _mm256_xor_pd(t2, sign));
            _mm256_storeu_pd(
                a + 2 * k,
                _mm256_add_pd(_mm256_loadu_pd(a + 2 * k), r));
        }
        for (; k < m; ++k) {
            const Real wr = w[2 * k], wi = w[2 * k + 1];
            const Real xr = xs[2 * k], xi = xs[2 * k + 1];
            a[2 * k] += wr * xr + wi * xi;
            a[2 * k + 1] += wr * xi - wi * xr;
        }
    }
}

__attribute__((target("avx2"))) void
plainMacLanesAvx2Body(Real *acc, const Real *w, const Real *x,
                      std::size_t lanes, std::size_t bins)
{
    const std::size_t m = bins - 1;
    const Real w0 = w[0], wm = w[2 * m];
    for (std::size_t l = 0; l < lanes; ++l) {
        Real *a = acc + 2 * l * bins;
        const Real *xs = x + 2 * l * bins;
        a[0] += w0 * xs[0];
        a[1] += 0.0;
        a[2 * m] += wm * xs[2 * m];
        a[2 * m + 1] += 0.0;
        std::size_t k = 1;
        for (; k + 1 < m; k += 2) {
            const __m256d wv = _mm256_loadu_pd(w + 2 * k);
            const __m256d xv = _mm256_loadu_pd(xs + 2 * k);
            const __m256d t1 =
                _mm256_mul_pd(_mm256_movedup_pd(wv), xv);
            const __m256d t2 =
                _mm256_mul_pd(_mm256_permute_pd(wv, 0xF),
                              _mm256_permute_pd(xv, 0x5));
            const __m256d r = _mm256_addsub_pd(t1, t2);
            _mm256_storeu_pd(
                a + 2 * k,
                _mm256_add_pd(_mm256_loadu_pd(a + 2 * k), r));
        }
        for (; k < m; ++k) {
            const Real wr = w[2 * k], wi = w[2 * k + 1];
            const Real xr = xs[2 * k], xi = xs[2 * k + 1];
            a[2 * k] += wr * xr - wi * xi;
            a[2 * k + 1] += wr * xi + wi * xr;
        }
    }
}

/**
 * One lane of block size 8 or below (at most one vector pair) runs
 * the scalar form: the call is then one dependent load-add-store
 * through acc, where the vector body ran a one-lane 1024x1024
 * block-8 matvec 1.2x slower than scalar on an AVX-512 Xeon. The
 * entry points stay untargeted so that path pays none of the vector
 * body's prologue. Same bits either way.
 */
bool
scalarIsFaster(std::size_t lanes, std::size_t bins)
{
    return lanes == 1 && bins <= 5;
}

void
conjMacLanesAvx2(Real *acc, const Real *w, const Real *x,
                 std::size_t lanes, std::size_t bins)
{
    if (scalarIsFaster(lanes, bins))
        conjMacLanesScalar(acc, w, x, lanes, bins);
    else
        conjMacLanesAvx2Body(acc, w, x, lanes, bins);
}

void
plainMacLanesAvx2(Real *acc, const Real *w, const Real *x,
                  std::size_t lanes, std::size_t bins)
{
    if (scalarIsFaster(lanes, bins))
        plainMacLanesScalar(acc, w, x, lanes, bins);
    else
        plainMacLanesAvx2Body(acc, w, x, lanes, bins);
}

} // namespace

#endif // ERNN_SIMD_X86

CplxMacLanesFn
conjMacLanesFn()
{
#if ERNN_SIMD_X86
    if (active() == Level::Avx2)
        return &conjMacLanesAvx2;
#endif
    return &conjMacLanesScalar;
}

CplxMacLanesFn
plainMacLanesFn()
{
#if ERNN_SIMD_X86
    if (active() == Level::Avx2)
        return &plainMacLanesAvx2;
#endif
    return &plainMacLanesScalar;
}

// --- f32 GEMM ----------------------------------------------------------

namespace
{

constexpr std::size_t kF32LaneTile = 8;

/** Trailing lanes (< 8) of one f32 row: per-lane float chains. */
inline void
gemmF32RowTail(const float *row, std::size_t cols, const float *xd,
               Real *yr, std::size_t lanes, std::size_t l0)
{
    float racc[kF32LaneTile];
    const std::size_t lt = lanes - l0;
    for (std::size_t l = 0; l < lt; ++l)
        racc[l] = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
        const float wv = row[c];
        const float *xr = xd + c * lanes + l0;
        for (std::size_t l = 0; l < lt; ++l)
            racc[l] += wv * xr[l];
    }
    for (std::size_t l = 0; l < lt; ++l)
        yr[l0 + l] = static_cast<Real>(racc[l]);
}

} // namespace

void
gemmF32Scalar(const float *w, std::size_t rows, std::size_t cols,
              const float *xd, Real *yd, std::size_t lanes)
{
    const std::size_t full_l = lanes - lanes % kF32LaneTile;
    float acc[kF32LaneTile];
    for (std::size_t r = 0; r < rows; ++r) {
        const float *row = w + r * cols;
        Real *yr = yd + r * lanes;
        for (std::size_t l0 = 0; l0 < full_l; l0 += kF32LaneTile) {
            for (auto &a : acc)
                a = 0.0f;
            for (std::size_t c = 0; c < cols; ++c) {
                const float wv = row[c];
                const float *xr = xd + c * lanes + l0;
                for (std::size_t l = 0; l < kF32LaneTile; ++l)
                    acc[l] += wv * xr[l];
            }
            for (std::size_t l = 0; l < kF32LaneTile; ++l)
                yr[l0 + l] = static_cast<Real>(acc[l]);
        }
        if (full_l < lanes)
            gemmF32RowTail(row, cols, xd, yr, lanes, full_l);
    }
}

#if ERNN_SIMD_X86

namespace
{

__attribute__((target("avx2"))) void
gemmF32Avx2(const float *w, std::size_t rows, std::size_t cols,
            const float *xd, Real *yd, std::size_t lanes)
{
    const std::size_t full_l = lanes - lanes % kF32LaneTile;
    for (std::size_t r = 0; r < rows; ++r) {
        const float *row = w + r * cols;
        Real *yr = yd + r * lanes;
        for (std::size_t l0 = 0; l0 < full_l; l0 += kF32LaneTile) {
            __m256 a = _mm256_setzero_ps();
            for (std::size_t c = 0; c < cols; ++c) {
                const __m256 xr =
                    _mm256_loadu_ps(xd + c * lanes + l0);
                // mul then add, never fmadd: each float lane is the
                // scalar per-lane chain with its two roundings.
                a = _mm256_add_ps(
                    a, _mm256_mul_ps(_mm256_set1_ps(row[c]), xr));
            }
            _mm256_storeu_pd(yr + l0,
                _mm256_cvtps_pd(_mm256_castps256_ps128(a)));
            _mm256_storeu_pd(yr + l0 + 4,
                _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1)));
        }
        if (full_l < lanes)
            gemmF32RowTail(row, cols, xd, yr, lanes, full_l);
    }
}

} // namespace

#endif // ERNN_SIMD_X86

GemmF32Fn
gemmF32Fn()
{
#if ERNN_SIMD_X86
    if (active() == Level::Avx2)
        return &gemmF32Avx2;
#endif
    return &gemmF32Scalar;
}

} // namespace ernn::simd
