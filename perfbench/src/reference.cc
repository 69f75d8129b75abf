#include "reference.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/gru.hh"
#include "nn/lstm.hh"

namespace ernn::perfbench::ref
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

double
sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

/** y = W x. */
std::vector<double>
matvec(const Dense &m, const std::vector<double> &x)
{
    std::vector<double> y(m.rows, 0.0);
    for (std::size_t r = 0; r < m.rows; ++r) {
        const double *row = &m.w[r * m.cols];
        double acc = 0.0;
        for (std::size_t c = 0; c < m.cols; ++c)
            acc += row[c] * x[c];
        y[r] = acc;
    }
    return y;
}

void
activate(bool tanhAct, std::vector<double> &v)
{
    for (auto &x : v)
        x = tanhAct ? std::tanh(x) : sigmoid(x);
}

Layer
lstmLayer(const nn::LstmLayer &l)
{
    const auto &cfg = l.config();
    Layer out;
    out.hidden = cfg.hiddenSize;
    out.output = cfg.outputSize();
    out.peephole = cfg.peephole;
    out.tanhCell = cfg.cellInputAct == nn::ActKind::Tanh;
    out.tanhOutput = cfg.outputAct == nn::ActKind::Tanh;
    out.wx = {denseOf(l.wix()), denseOf(l.wfx()), denseOf(l.wcx()),
              denseOf(l.wox())};
    out.wr = {denseOf(l.wir()), denseOf(l.wfr()), denseOf(l.wcr()),
              denseOf(l.wor())};
    out.bias = {l.bi(), l.bf(), l.bc(), l.bo()};
    out.wic = l.wic();
    out.wfc = l.wfc();
    out.woc = l.woc();
    if (l.wym())
        out.wym = denseOf(*l.wym());
    return out;
}

Layer
gruLayer(const nn::GruLayer &l)
{
    Layer out;
    out.gru = true;
    out.hidden = l.config().hiddenSize;
    out.output = out.hidden;
    out.tanhCell = l.config().candidateAct == nn::ActKind::Tanh;
    out.wx = {denseOf(l.wzx()), denseOf(l.wrx()), denseOf(l.wcx())};
    out.wr = {denseOf(l.wzc()), denseOf(l.wrc()), denseOf(l.wcc())};
    out.bias = {l.bz(), l.br(), l.bc()};
    return out;
}

/** Pre-activation of gate @p g: Wx x + Wr h + b. */
std::vector<double>
gate(const Layer &l, std::size_t g, const std::vector<double> &x,
     const std::vector<double> &h)
{
    std::vector<double> a = matvec(l.wx[g], x);
    const std::vector<double> r = matvec(l.wr[g], h);
    for (std::size_t k = 0; k < a.size(); ++k)
        a[k] += r[k] + l.bias[g][k];
    return a;
}

double
hzToMelHtk(double hz)
{
    return 2595.0 * std::log10(1.0 + hz / 700.0);
}

double
melToHzHtk(double mel)
{
    return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

} // namespace

Dense
expandCirculant(std::size_t rows, std::size_t cols, std::size_t block,
                const double *generators)
{
    Dense d{rows, cols, std::vector<double>(rows * cols, 0.0)};
    const std::size_t p = rows / block, q = cols / block;
    for (std::size_t i = 0; i < p; ++i)
        for (std::size_t j = 0; j < q; ++j) {
            const double *g = generators + (i * q + j) * block;
            for (std::size_t r = 0; r < block; ++r)
                for (std::size_t c = 0; c < block; ++c)
                    d.w[(i * block + r) * cols + j * block + c] =
                        g[(c + block - r) % block];
        }
    return d;
}

Dense
denseOf(const nn::LinearOp &op)
{
    if (const auto *circ = op.circulantWeight())
        return expandCirculant(circ->rows(), circ->cols(),
                               circ->blockSize(), circ->raw().data());
    const Matrix &m = *op.denseWeight();
    return Dense{m.rows(), m.cols(), m.raw()};
}

bool
isBlockCirculant(const double *w, std::size_t rows, std::size_t cols,
                 std::size_t block)
{
    if (block == 0 || rows % block || cols % block)
        return false;
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            // Compare with the next entry on the same wrapped diagonal
            // of its block; exact equality, no tolerance.
            const std::size_t br = r / block * block;
            const std::size_t bc = c / block * block;
            const std::size_t r2 = br + (r - br + 1) % block;
            const std::size_t c2 = bc + (c - bc + 1) % block;
            if (std::memcmp(&w[r * cols + c], &w[r2 * cols + c2],
                            sizeof(double)) != 0)
                return false;
        }
    return true;
}

Model
fromModel(const nn::StackedRnn &model)
{
    Model out;
    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        const nn::RnnLayer &layer = model.layer(i);
        if (const auto *lstm = dynamic_cast<const nn::LstmLayer *>(&layer))
            out.layers.push_back(lstmLayer(*lstm));
        else
            out.layers.push_back(
                gruLayer(dynamic_cast<const nn::GruLayer &>(layer)));
    }
    out.classifier = denseOf(model.classifier());
    out.classifierBias = model.classifierBias();
    return out;
}

nn::Sequence
forward(const Model &model, const nn::Sequence &frames)
{
    std::vector<std::vector<double>> h, c;
    for (const auto &l : model.layers) {
        h.emplace_back(l.gru ? l.hidden : l.output, 0.0);
        c.emplace_back(l.hidden, 0.0);
    }
    nn::Sequence logits;
    logits.reserve(frames.size());
    for (const auto &frame : frames) {
        std::vector<double> x = frame;
        for (std::size_t li = 0; li < model.layers.size(); ++li) {
            const Layer &l = model.layers[li];
            std::vector<double> &cs = c[li];
            std::vector<double> &hs = h[li];
            if (l.gru) {
                std::vector<double> z = matvec(l.wx[0], x);
                std::vector<double> r = matvec(l.wx[1], x);
                const auto zr = matvec(l.wr[0], cs);
                const auto rr = matvec(l.wr[1], cs);
                for (std::size_t k = 0; k < l.hidden; ++k) {
                    z[k] += zr[k] + l.bias[0][k];
                    r[k] += rr[k] + l.bias[1][k];
                }
                activate(false, z);
                activate(false, r);
                std::vector<double> s(l.hidden);
                for (std::size_t k = 0; k < l.hidden; ++k)
                    s[k] = r[k] * cs[k];
                std::vector<double> cand = matvec(l.wx[2], x);
                const auto cr = matvec(l.wr[2], s);
                for (std::size_t k = 0; k < l.hidden; ++k)
                    cand[k] += cr[k] + l.bias[2][k];
                activate(l.tanhCell, cand);
                for (std::size_t k = 0; k < l.hidden; ++k)
                    cs[k] = (1.0 - z[k]) * cs[k] + z[k] * cand[k];
                hs = cs;
            } else {
                std::vector<double> i = gate(l, 0, x, hs);
                std::vector<double> f = gate(l, 1, x, hs);
                std::vector<double> g = gate(l, 2, x, hs);
                std::vector<double> o = gate(l, 3, x, hs);
                for (std::size_t k = 0; k < l.hidden && l.peephole; ++k) {
                    i[k] += l.wic[k] * cs[k];
                    f[k] += l.wfc[k] * cs[k];
                }
                activate(false, i);
                activate(false, f);
                activate(l.tanhCell, g);
                for (std::size_t k = 0; k < l.hidden; ++k)
                    cs[k] = f[k] * cs[k] + g[k] * i[k];
                for (std::size_t k = 0; k < l.hidden && l.peephole; ++k)
                    o[k] += l.woc[k] * cs[k];
                activate(false, o);
                std::vector<double> m(l.hidden);
                for (std::size_t k = 0; k < l.hidden; ++k)
                    m[k] = o[k] * (l.tanhOutput ? std::tanh(cs[k])
                                                : sigmoid(cs[k]));
                hs = l.wym.rows ? matvec(l.wym, m) : m;
            }
            x = hs;
        }
        std::vector<double> y = matvec(model.classifier, x);
        for (std::size_t k = 0; k < y.size(); ++k)
            y[k] += model.classifierBias[k];
        logits.push_back(std::move(y));
    }
    return logits;
}

std::vector<double>
logMelFrame(const std::vector<double> &samples, std::size_t frame,
            const speech::FrontendConfig &cfg)
{
    const std::size_t len = cfg.frameLength, n = cfg.fftSize;
    const std::size_t begin = frame * cfg.frameShift;
    std::vector<double> x(len);
    for (std::size_t t = 0; t < len; ++t) {
        const std::size_t s = begin + t;
        const double prev = s ? samples[s - 1] : 0.0;
        const double hamming =
            0.54 - 0.46 * std::cos(2.0 * kPi * double(t) / double(len - 1));
        x[t] = (samples[s] - cfg.preEmphasis * prev) * hamming;
    }
    const std::size_t bins = n / 2 + 1;
    std::vector<double> power(bins);
    for (std::size_t k = 0; k < bins; ++k) {
        double re = 0.0, im = 0.0;
        for (std::size_t t = 0; t < len; ++t) {
            const double ang =
                -2.0 * kPi * double((k * t) % n) / double(n);
            re += x[t] * std::cos(ang);
            im += x[t] * std::sin(ang);
        }
        power[k] = re * re + im * im;
    }
    const double nyquist = double(cfg.sampleRate) / 2.0;
    const double highHz = cfg.melHighHz > 0.0 ? cfg.melHighHz : nyquist;
    const double melLo = hzToMelHtk(cfg.melLowHz);
    const double melHi = hzToMelHtk(highHz);
    const double hzPerBin = double(cfg.sampleRate) / double(n);
    std::vector<double> out(cfg.melBands);
    for (std::size_t b = 0; b < cfg.melBands; ++b) {
        auto edge = [&](std::size_t i) {
            return melToHzHtk(melLo + (melHi - melLo) * double(i) /
                                          double(cfg.melBands + 1));
        };
        const double lo = edge(b), mid = edge(b + 1), hi = edge(b + 2);
        double acc = 0.0;
        for (std::size_t k = 0; k < bins; ++k) {
            const double hz = double(k) * hzPerBin;
            if (hz <= lo || hz >= hi)
                continue;
            const double wgt = hz <= mid ? (hz - lo) / (mid - lo)
                                         : (hi - hz) / (hi - mid);
            acc += wgt * power[k];
        }
        out[b] = std::log(std::max(cfg.logFloor, acc));
    }
    return out;
}

double
maxAbsDiff(const nn::Sequence &a, const nn::Sequence &b)
{
    if (a.size() != b.size())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::size_t t = 0; t < a.size(); ++t) {
        if (a[t].size() != b[t].size())
            return std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < a[t].size(); ++k) {
            const double d = std::fabs(a[t][k] - b[t][k]);
            if (std::isnan(d))
                return std::numeric_limits<double>::infinity();
            worst = std::max(worst, d);
        }
    }
    return worst;
}

bool
bitEqual(const nn::Sequence &a, const nn::Sequence &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t t = 0; t < a.size(); ++t)
        if (a[t].size() != b[t].size() ||
            std::memcmp(a[t].data(), b[t].data(),
                        a[t].size() * sizeof(double)) != 0)
            return false;
    return true;
}

} // namespace ernn::perfbench::ref
