#include "tensor/fft.hh"

#include <cmath>
#include <unordered_map>

#include "base/logging.hh"

namespace ernn::fft
{

namespace
{

constexpr Real two_pi = 6.283185307179586476925286766559;

struct CounterState
{
    OpCounters counters;
    bool enabled = false;
};

thread_local CounterState tls_state;

/**
 * Twiddle factor cache: for size n stores exp(-2*pi*i*k/n) for
 * k in [0, n/2). Sizes are powers of two, so the cache stays tiny.
 */
const CVector &
twiddles(std::size_t n)
{
    thread_local std::unordered_map<std::size_t, CVector> cache;
    auto it = cache.find(n);
    if (it != cache.end())
        return it->second;
    CVector tw(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
        const Real ang = -two_pi * static_cast<Real>(k) /
                         static_cast<Real>(n);
        tw[k] = Complex(std::cos(ang), std::sin(ang));
    }
    return cache.emplace(n, std::move(tw)).first->second;
}

void
bitReversePermute(CVector &a)
{
    const std::size_t n = a.size();
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }
}

} // namespace

void
OpCount::setEnabled(bool on)
{
    tls_state.enabled = on;
}

bool
OpCount::enabled()
{
    return tls_state.enabled;
}

void
OpCount::reset()
{
    tls_state.counters = OpCounters{};
}

OpCounters
OpCount::snapshot()
{
    return tls_state.counters;
}

void
OpCount::addRealMults(std::uint64_t n)
{
    tls_state.counters.realMults += n;
}

void
OpCount::addComplexMults(std::uint64_t n)
{
    tls_state.counters.cmplxMults += n;
}

void
OpCount::addEltwiseMults(std::uint64_t n)
{
    tls_state.counters.eltwiseMults += n;
    tls_state.counters.realMults += n;
}

void
OpCount::countFft()
{
    ++tls_state.counters.fftCalls;
}

void
OpCount::countIfft()
{
    ++tls_state.counters.ifftCalls;
}

OpCountScope::OpCountScope()
    : prev_(OpCount::enabled())
{
    OpCount::setEnabled(true);
    OpCount::reset();
}

OpCountScope::~OpCountScope()
{
    OpCount::setEnabled(prev_);
}

bool
isPowerOfTwo(std::size_t n)
{
    return n >= 1 && (n & (n - 1)) == 0;
}

std::size_t
log2Ceil(std::size_t n)
{
    ernn_assert(n >= 1, "log2Ceil of zero");
    std::size_t l = 0;
    std::size_t v = 1;
    while (v < n) {
        v <<= 1;
        ++l;
    }
    return l;
}

void
fftInPlace(CVector &a, bool inverse)
{
    const std::size_t n = a.size();
    ernn_assert(isPowerOfTwo(n), "FFT size " << n
                << " is not a power of two");
    if (n == 1)
        return;

    bitReversePermute(a);

    const CVector &tw = twiddles(n);
    const bool counting = OpCount::enabled();
    std::uint64_t cmuls = 0;

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const std::size_t step = n / len;
        for (std::size_t i = 0; i < n; i += len) {
            for (std::size_t j = 0; j < half; ++j) {
                Complex &lo = a[i + j];
                Complex &hi = a[i + j + half];
                Complex t;
                if (j == 0) {
                    // Twiddle is 1: no multiplication.
                    t = hi;
                } else if (len >= 4 && j == len / 4) {
                    // Twiddle is -i (forward) or +i (inverse):
                    // a pure component swap, no multiplication.
                    t = inverse ? Complex(-hi.imag(), hi.real())
                                : Complex(hi.imag(), -hi.real());
                } else {
                    const Complex w = inverse ?
                        std::conj(tw[j * step]) : tw[j * step];
                    t = Complex(
                        w.real() * hi.real() - w.imag() * hi.imag(),
                        w.real() * hi.imag() + w.imag() * hi.real());
                    ++cmuls;
                }
                hi = lo - t;
                lo += t;
            }
        }
    }

    if (inverse) {
        // The 1/n scaling maps to the PE's right-shift registers
        // (Fig. 10); it costs no hardware multiplier.
        const Real inv = 1.0 / static_cast<Real>(n);
        for (auto &v : a)
            v *= inv;
    }

    if (counting) {
        OpCount::addComplexMults(cmuls);
        OpCount::addRealMults(4 * cmuls);
    }
}

CVector
naiveDft(const CVector &a, bool inverse)
{
    const std::size_t n = a.size();
    CVector out(n, Complex(0, 0));
    const Real sign = inverse ? 1.0 : -1.0;
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t t = 0; t < n; ++t) {
            const Real ang = sign * two_pi * static_cast<Real>(k * t) /
                             static_cast<Real>(n);
            out[k] += a[t] * Complex(std::cos(ang), std::sin(ang));
        }
    }
    if (inverse) {
        for (auto &v : out)
            v /= static_cast<Real>(n);
    }
    return out;
}

CVector
rfft(const Vector &x)
{
    CVector out, scratch;
    rfftInto(x, out, scratch);
    return out;
}

void
rfftInto(const Vector &x, CVector &out, CVector &scratch)
{
    out.resize(x.size() / 2 + 1);
    rfftInto(x, out.data(), scratch);
}

void
rfftInto(const Vector &x, Complex *out, CVector &scratch)
{
    const std::size_t n = x.size();
    ernn_assert(isPowerOfTwo(n), "rfft size " << n
                << " is not a power of two");
    if (OpCount::enabled())
        OpCount::countFft();

    if (n == 1) {
        out[0] = Complex(x[0], 0);
        return;
    }
    if (n == 2) {
        out[0] = Complex(x[0] + x[1], 0);
        out[1] = Complex(x[0] - x[1], 0);
        return;
    }

    const std::size_t m = n / 2;

    // Pack adjacent real samples into complex values and run a
    // half-size complex FFT (the real-FFT saving of Sec. V-A2).
    CVector &z = scratch;
    z.resize(m);
    for (std::size_t k = 0; k < m; ++k)
        z[k] = Complex(x[2 * k], x[2 * k + 1]);
    fftInPlace(z, false);

    out[0] = Complex(z[0].real() + z[0].imag(), 0);
    out[m] = Complex(z[0].real() - z[0].imag(), 0);

    const CVector &tw = twiddles(n);
    const bool counting = OpCount::enabled();
    std::uint64_t cmuls = 0;

    for (std::size_t k = 1; k <= m / 2; ++k) {
        const Complex zk = z[k];
        const Complex zmk = std::conj(z[m - k]);
        const Complex xe = 0.5 * (zk + zmk);
        const Complex diff = zk - zmk;
        // xo = (zk - zmk) / (2i) = -0.5i * diff
        const Complex xo(0.5 * diff.imag(), -0.5 * diff.real());
        Complex p;
        if (k == m / 2 && m >= 2) {
            // Twiddle exp(-i*pi/2) = -i: trivial.
            p = Complex(xo.imag(), -xo.real());
        } else {
            const Complex w = tw[k];
            p = Complex(w.real() * xo.real() - w.imag() * xo.imag(),
                        w.real() * xo.imag() + w.imag() * xo.real());
            ++cmuls;
        }
        out[k] = xe + p;
        if (k != m - k)
            out[m - k] = std::conj(xe - p);
    }

    if (counting) {
        OpCount::addComplexMults(cmuls);
        OpCount::addRealMults(4 * cmuls);
    }
}

Vector
irfft(const CVector &spectrum, std::size_t n)
{
    Vector out;
    CVector scratch;
    irfftInto(spectrum, n, out, scratch);
    return out;
}

void
irfftInto(const CVector &spectrum, std::size_t n, Vector &out,
          CVector &scratch)
{
    ernn_assert(spectrum.size() == n / 2 + 1,
                "irfft: expected " << (n / 2 + 1) << " bins, got "
                << spectrum.size());
    irfftInto(spectrum.data(), n, out, scratch);
}

void
irfftInto(const Complex *spectrum, std::size_t n, Vector &out,
          CVector &scratch)
{
    ernn_assert(isPowerOfTwo(n), "irfft size " << n
                << " is not a power of two");
    if (OpCount::enabled())
        OpCount::countIfft();

    if (n == 1) {
        out.assign(1, spectrum[0].real());
        return;
    }
    if (n == 2) {
        out.resize(2);
        out[0] = 0.5 * (spectrum[0].real() + spectrum[1].real());
        out[1] = 0.5 * (spectrum[0].real() - spectrum[1].real());
        return;
    }

    const std::size_t m = n / 2;
    CVector &z = scratch;
    z.resize(m);
    z[0] = Complex(0.5 * (spectrum[0].real() + spectrum[m].real()),
                   0.5 * (spectrum[0].real() - spectrum[m].real()));

    const CVector &tw = twiddles(n);
    const bool counting = OpCount::enabled();
    std::uint64_t cmuls = 0;

    for (std::size_t k = 1; k <= m / 2; ++k) {
        const Complex a = spectrum[k];
        const Complex b = std::conj(spectrum[m - k]);
        const Complex xe = 0.5 * (a + b);
        const Complex q = 0.5 * (a - b); // q = W^k * xo
        Complex xo;
        if (k == m / 2 && m >= 2) {
            // conj(W^{m/2}) = +i: trivial.
            xo = Complex(-q.imag(), q.real());
        } else {
            const Complex w = std::conj(tw[k]);
            xo = Complex(w.real() * q.real() - w.imag() * q.imag(),
                         w.real() * q.imag() + w.imag() * q.real());
            ++cmuls;
        }
        // z[k] = xe + i*xo
        z[k] = Complex(xe.real() - xo.imag(), xe.imag() + xo.real());
        if (k != m - k) {
            z[m - k] = Complex(xe.real() + xo.imag(),
                               -xe.imag() + xo.real());
        }
    }

    fftInPlace(z, true);

    out.resize(n);
    for (std::size_t k = 0; k < m; ++k) {
        out[2 * k] = z[k].real();
        out[2 * k + 1] = z[k].imag();
    }

    if (counting) {
        OpCount::addComplexMults(cmuls);
        OpCount::addRealMults(4 * cmuls);
    }
}

void
accumulateConjProduct(CVector &acc, const CVector &w, const CVector &x)
{
    ernn_assert(acc.size() == w.size(),
                "accumulateConjProduct: bin count mismatch");
    accumulateConjProduct(acc, w.data(), x);
}

void
accumulateConjProduct(CVector &acc, const Complex *w, const CVector &x)
{
    ernn_assert(acc.size() == x.size(),
                "accumulateConjProduct: bin count mismatch");
    const std::size_t bins = acc.size();
    ernn_assert(bins >= 2, "accumulateConjProduct: too few bins");
    const std::size_t m = bins - 1;

    // Bins 0 and m of a real spectrum are purely real.
    acc[0] += Complex(w[0].real() * x[0].real(), 0);
    acc[m] += Complex(w[m].real() * x[m].real(), 0);

    for (std::size_t k = 1; k < m; ++k) {
        const Real wr = w[k].real(), wi = w[k].imag();
        const Real xr = x[k].real(), xi = x[k].imag();
        // conj(w) * x
        acc[k] += Complex(wr * xr + wi * xi, wr * xi - wi * xr);
    }

    if (OpCount::enabled())
        OpCount::addEltwiseMults(2 + 4 * (m - 1));
}

std::uint64_t
complexFftRealMults(std::size_t n)
{
    ernn_assert(isPowerOfTwo(n), "complexFftRealMults: bad size");
    std::uint64_t cmuls = 0;
    for (std::size_t len = 8; len <= n; len <<= 1) {
        const std::size_t groups = n / len;
        const std::size_t nontrivial = len / 2 - 2;
        cmuls += groups * nontrivial;
    }
    return 4 * cmuls;
}

std::uint64_t
rfftRealMults(std::size_t n)
{
    ernn_assert(isPowerOfTwo(n), "rfftRealMults: bad size");
    if (n <= 2)
        return 0;
    const std::uint64_t merge = n >= 8 ? 4ull * (n / 4 - 1) : 0ull;
    return complexFftRealMults(n / 2) + merge;
}

std::uint64_t
irfftRealMults(std::size_t n)
{
    // The inverse split mirrors the forward merge exactly.
    return rfftRealMults(n);
}

std::uint64_t
eltwiseRealMults(std::size_t n)
{
    ernn_assert(isPowerOfTwo(n) && n >= 2, "eltwiseRealMults: bad size");
    return 2 * n - 2;
}

} // namespace ernn::fft
