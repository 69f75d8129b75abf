#include "runtime/compiled_model.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "runtime/compiled_layers.hh"

namespace ernn::runtime
{

void
Datapath::activate(nn::ActKind kind, Vector &v) const
{
    if (fixedPoint) {
        if (integerDatapath) {
            // Folded activate+post: inputs are on the value grid
            // (every activate call site posts first), so one lookup
            // per element replaces the segment search and the
            // follow-up post becomes an identity.
            const Vector &lut = kind == nn::ActKind::Sigmoid
                                    ? *sigmoidLut
                                    : *tanhLut;
            const std::int64_t off = -valueFormat.minQ();
            const auto last =
                static_cast<std::int64_t>(lut.size()) - 1;
            for (auto &x : v) {
                const std::int64_t idx =
                    std::clamp(valueFormat.toQ(x) + off,
                               std::int64_t{0}, last);
                x = lut[static_cast<std::size_t>(idx)];
            }
            return;
        }
        const nn::PiecewiseLinear *table =
            kind == nn::ActKind::Sigmoid ? sigmoidTable.get()
                                         : tanhTable.get();
        if (table) {
            table->apply(v);
            return;
        }
    }
    nn::applyActivation(kind, v);
}

namespace detail
{

namespace
{

/**
 * The circulant weights of a kernel group when every member runs the
 * CirculantFFT backend with identical input geometry, else empty.
 * Such a group multiplies one shared operand (e.g. the four LSTM
 * gate matrices on x_t), so its segment FFTs are computed once and
 * shared — extending the paper's FFT decoupling across gates, which
 * the per-matrix training path cannot do.
 */
std::vector<const circulant::BlockCirculantMatrix *>
fusableGroup(std::initializer_list<const LinearKernel *> group)
{
    std::vector<const circulant::BlockCirculantMatrix *> out;
    for (const LinearKernel *k : group) {
        const auto *fft = dynamic_cast<const CirculantFftKernel *>(k);
        if (!fft)
            return {};
        const auto &w = fft->weight();
        if (!out.empty() &&
            (w.cols() != out.front()->cols() ||
             w.blockSize() != out.front()->blockSize()))
            return {};
        out.push_back(&w);
    }
    return out;
}

void
checkKernel(const LinearKernel *k, const char *name,
            std::size_t in_dim, std::size_t out_dim)
{
    ernn_assert(k, "compiled layer: missing kernel " << name);
    ernn_assert(k->inDim() == in_dim && k->outDim() == out_dim,
                "compiled layer: kernel " << name << " is "
                << k->outDim() << "x" << k->inDim() << ", expected "
                << out_dim << "x" << in_dim);
}

} // namespace

Datapath
makeDatapath(const CompileOptions &opts)
{
    Datapath dp;
    if (opts.backend != BackendKind::FixedPoint)
        return dp;
    dp.fixedPoint = true;
    // activationRange is a clamp bound, not an observed maximum:
    // values at the bound saturate by design, so the grid spends its
    // bits on resolution (Q3.8 at the 12-bit/range-8 design point,
    // not Q4.7).
    dp.valueFormat = quant::chooseClampFormat(opts.fixedPointBits,
                                              opts.activationRange);
    if (opts.activationSegments >= 2) {
        dp.sigmoidTable = std::make_shared<const nn::PiecewiseLinear>(
            nn::ActKind::Sigmoid, opts.activationSegments,
            opts.activationRange);
        dp.tanhTable = std::make_shared<const nn::PiecewiseLinear>(
            nn::ActKind::Tanh, opts.activationSegments,
            opts.activationRange);
    }

    dp.integerDatapath = !opts.fixedPointEmulation &&
                         opts.fixedPointBits >= 2 &&
                         opts.fixedPointBits <= 16;
    if (dp.integerDatapath) {
        // One folded activate+post output per value-grid code,
        // computed through the very objects the emulation evaluates —
        // equality with the oracle is by construction, not by proof.
        const auto build = [&dp](nn::ActKind kind,
                                 const nn::PiecewiseLinear *table) {
            const quant::FixedPointFormat &vf = dp.valueFormat;
            auto lut = std::make_shared<Vector>();
            lut->reserve(
                static_cast<std::size_t>(vf.maxQ() - vf.minQ() + 1));
            for (std::int64_t q = vf.minQ(); q <= vf.maxQ(); ++q) {
                const Real x = vf.fromQ(q);
                const Real a =
                    table ? table->eval(x)
                          : (kind == nn::ActKind::Sigmoid
                                 ? nn::sigmoid(x)
                                 : std::tanh(x));
                lut->push_back(vf.quantize(a));
            }
            return lut;
        };
        dp.sigmoidLut = build(nn::ActKind::Sigmoid,
                              dp.sigmoidTable.get());
        dp.tanhLut = build(nn::ActKind::Tanh, dp.tanhTable.get());
    }
    return dp;
}

// --- CompiledLstmLayer -------------------------------------------------

CompiledLstmLayer::CompiledLstmLayer(LstmParts parts)
    : p_(std::move(parts))
{
    const std::size_t in = p_.cfg.inputSize;
    const std::size_t h = p_.cfg.hiddenSize;
    const std::size_t out = p_.cfg.outputSize();
    checkKernel(p_.wix.get(), "wix", in, h);
    checkKernel(p_.wfx.get(), "wfx", in, h);
    checkKernel(p_.wcx.get(), "wcx", in, h);
    checkKernel(p_.wox.get(), "wox", in, h);
    checkKernel(p_.wir.get(), "wir", out, h);
    checkKernel(p_.wfr.get(), "wfr", out, h);
    checkKernel(p_.wcr.get(), "wcr", out, h);
    checkKernel(p_.wor.get(), "wor", out, h);
    if (p_.cfg.projectionSize) {
        checkKernel(p_.wym.get(), "wym", h, out);
    } else {
        ernn_assert(!p_.wym,
                    "compiled lstm: projection kernel without "
                    "projectionSize");
    }
    ernn_assert(p_.bi.size() == h && p_.bf.size() == h &&
                p_.bc.size() == h && p_.bo.size() == h,
                "compiled lstm: bias size mismatch");
    if (p_.cfg.peephole)
        ernn_assert(p_.wic.size() == h && p_.wfc.size() == h &&
                    p_.woc.size() == h,
                    "compiled lstm: peephole size mismatch");

    fusedInput_ = fusableGroup(
        {p_.wix.get(), p_.wfx.get(), p_.wcx.get(), p_.wox.get()});
    fusedRec_ = fusableGroup(
        {p_.wir.get(), p_.wfr.get(), p_.wcr.get(), p_.wor.get()});
}

std::size_t
CompiledLstmLayer::inputSize() const
{
    return p_.cfg.inputSize;
}

std::size_t
CompiledLstmLayer::outputSize() const
{
    return p_.cfg.outputSize();
}

std::size_t
CompiledLstmLayer::storedParams() const
{
    std::size_t n = p_.wix->storedParams() + p_.wfx->storedParams() +
                    p_.wcx->storedParams() + p_.wox->storedParams() +
                    p_.wir->storedParams() + p_.wfr->storedParams() +
                    p_.wcr->storedParams() + p_.wor->storedParams();
    if (p_.wym)
        n += p_.wym->storedParams();
    n += p_.bi.size() + p_.bf.size() + p_.bc.size() + p_.bo.size();
    n += p_.wic.size() + p_.wfc.size() + p_.woc.size();
    return n;
}

void
CompiledLstmLayer::initBatchState(LayerBatchState &state,
                                  std::size_t lanes) const
{
    state.h.reshape(p_.cfg.outputSize(), lanes);
    state.c.reshape(p_.cfg.hiddenSize, lanes);
}

void
CompiledLstmLayer::initBatchScratch(LayerBatchScratch &s,
                                    std::size_t lanes) const
{
    const std::size_t h = p_.cfg.hiddenSize;
    s.g1.reshape(h, lanes);
    s.g2.reshape(h, lanes);
    s.g3.reshape(h, lanes);
    s.g4.reshape(h, lanes);
    s.t1.reshape(h, lanes);
    s.t2.reshape(h, lanes);
    s.t3.reshape(h, lanes);
}

void
CompiledLstmLayer::stepBatch(const Matrix &x, LayerBatchState &state,
                             Matrix &y, LayerBatchScratch &s,
                             KernelScratch &ks,
                             const Datapath &dp) const
{
    // Gate matvec contributions first: i/f/g/o share x (and
    // y_{t-1}), so the fused CirculantFFT path computes each
    // operand's segment FFTs once for all four gates (q FFTs per
    // lane instead of 4q). Each kernel call is one GEMM-shaped pass
    // over the weights shared by every lane.
    Matrix *gates[4] = {&s.g1, &s.g2, &s.g3, &s.g4};
    if (!fusedInput_.empty()) {
        for (Matrix *g : gates)
            g->setZero();
        circulant::computeSegmentSpectraBatch(
            x, fusedInput_.front()->blockSize(), ks.fft);
        for (std::size_t k = 0; k < 4; ++k)
            fusedInput_[k]->matvecAccFromSpectraBatch(*gates[k],
                                                      ks.fft);
    } else {
        p_.wix->applyBatch(x, s.g1, ks);
        dp.post(s.g1.raw());
        p_.wfx->applyBatch(x, s.g2, ks);
        dp.post(s.g2.raw());
        p_.wcx->applyBatch(x, s.g3, ks);
        dp.post(s.g3.raw());
        p_.wox->applyBatch(x, s.g4, ks);
        dp.post(s.g4.raw());
    }
    if (!fusedRec_.empty()) {
        circulant::computeSegmentSpectraBatch(
            state.h, fusedRec_.front()->blockSize(), ks.fft);
        for (std::size_t k = 0; k < 4; ++k)
            fusedRec_[k]->matvecAccFromSpectraBatch(*gates[k],
                                                    ks.fft);
    } else {
        const LinearKernel *recs[4] = {p_.wir.get(), p_.wfr.get(),
                                       p_.wcr.get(), p_.wor.get()};
        for (std::size_t k = 0; k < 4; ++k) {
            recs[k]->applyBatch(state.h, s.t1, ks);
            dp.post(s.t1.raw());
            addInPlace(gates[k]->raw(), s.t1.raw());
        }
    }

    // Input gate: i = sigma(Wix x + Wir y' + wic.c' + bi).
    if (p_.cfg.peephole)
        hadamardBroadcastAcc(s.g1, p_.wic, state.c);
    addBiasRows(s.g1, p_.bi);
    dp.post(s.g1.raw());
    dp.activate(nn::ActKind::Sigmoid, s.g1.raw());
    dp.post(s.g1.raw());

    // Forget gate.
    if (p_.cfg.peephole)
        hadamardBroadcastAcc(s.g2, p_.wfc, state.c);
    addBiasRows(s.g2, p_.bf);
    dp.post(s.g2.raw());
    dp.activate(nn::ActKind::Sigmoid, s.g2.raw());
    dp.post(s.g2.raw());

    // Cell input (no peephole, Eqn. 1c).
    addBiasRows(s.g3, p_.bc);
    dp.post(s.g3.raw());
    dp.activate(p_.cfg.cellInputAct, s.g3.raw());
    dp.post(s.g3.raw());

    // Cell state: c = f.c' + g.i (Eqn. 1d) into t2.
    s.t2.setZero();
    hadamardAcc(s.t2.raw(), s.g2.raw(), state.c.raw());
    hadamardAcc(s.t2.raw(), s.g3.raw(), s.g1.raw());
    dp.post(s.t2.raw());

    // Output gate (peephole reads the *current* c, Eqn. 1e).
    if (p_.cfg.peephole)
        hadamardBroadcastAcc(s.g4, p_.woc, s.t2);
    addBiasRows(s.g4, p_.bo);
    dp.post(s.g4.raw());
    dp.activate(nn::ActKind::Sigmoid, s.g4.raw());
    dp.post(s.g4.raw());

    // Cell output m = o . h(c) (Eqn. 1f) into t3.
    std::copy(s.t2.raw().begin(), s.t2.raw().end(),
              s.t3.raw().begin());
    dp.activate(p_.cfg.outputAct, s.t3.raw());
    dp.post(s.t3.raw());
    hadamardInPlace(s.t3.raw(), s.g4.raw());
    dp.post(s.t3.raw());

    // Projected output (Eqn. 1g).
    if (p_.wym) {
        p_.wym->applyBatch(s.t3, y, ks);
        dp.post(y.raw());
    } else {
        std::copy(s.t3.raw().begin(), s.t3.raw().end(),
                  y.raw().begin());
    }

    // Commit state: c_t and y_t become the next step's history.
    std::swap(state.c, s.t2);
    std::copy(y.raw().begin(), y.raw().end(),
              state.h.raw().begin());
}

std::vector<const LinearKernel *>
CompiledLstmLayer::kernels() const
{
    std::vector<const LinearKernel *> out{
        p_.wix.get(), p_.wfx.get(), p_.wcx.get(), p_.wox.get(),
        p_.wir.get(), p_.wfr.get(), p_.wcr.get(), p_.wor.get()};
    if (p_.wym)
        out.push_back(p_.wym.get());
    return out;
}

// --- CompiledGruLayer --------------------------------------------------

CompiledGruLayer::CompiledGruLayer(GruParts parts)
    : p_(std::move(parts))
{
    const std::size_t in = p_.cfg.inputSize;
    const std::size_t h = p_.cfg.hiddenSize;
    checkKernel(p_.wzx.get(), "wzx", in, h);
    checkKernel(p_.wrx.get(), "wrx", in, h);
    checkKernel(p_.wcx.get(), "wcx", in, h);
    checkKernel(p_.wzc.get(), "wzc", h, h);
    checkKernel(p_.wrc.get(), "wrc", h, h);
    checkKernel(p_.wcc.get(), "wcc", h, h);
    ernn_assert(p_.bz.size() == h && p_.br.size() == h &&
                p_.bc.size() == h,
                "compiled gru: bias size mismatch");

    fusedInput_ = fusableGroup(
        {p_.wzx.get(), p_.wrx.get(), p_.wcx.get()});
    fusedRec_ = fusableGroup({p_.wzc.get(), p_.wrc.get()});
}

std::size_t
CompiledGruLayer::inputSize() const
{
    return p_.cfg.inputSize;
}

std::size_t
CompiledGruLayer::outputSize() const
{
    return p_.cfg.hiddenSize;
}

std::size_t
CompiledGruLayer::storedParams() const
{
    return p_.wzx->storedParams() + p_.wrx->storedParams() +
           p_.wcx->storedParams() + p_.wzc->storedParams() +
           p_.wrc->storedParams() + p_.wcc->storedParams() +
           p_.bz.size() + p_.br.size() + p_.bc.size();
}

void
CompiledGruLayer::initBatchState(LayerBatchState &state,
                                 std::size_t lanes) const
{
    state.h.reshape(0, 0); // the GRU's output *is* its cell state
    state.c.reshape(p_.cfg.hiddenSize, lanes);
}

void
CompiledGruLayer::initBatchScratch(LayerBatchScratch &s,
                                   std::size_t lanes) const
{
    const std::size_t h = p_.cfg.hiddenSize;
    s.g1.reshape(h, lanes);
    s.g2.reshape(h, lanes);
    s.g3.reshape(h, lanes);
    s.g4.reshape(0, 0);
    s.t1.reshape(h, lanes);
    s.t2.reshape(h, lanes);
    s.t3.reshape(h, lanes);
}

void
CompiledGruLayer::stepBatch(const Matrix &x, LayerBatchState &state,
                            Matrix &y, LayerBatchScratch &s,
                            KernelScratch &ks, const Datapath &dp) const
{
    // Gate matvec contributions: z/r/c~ share x, z/r share the
    // previous state, so the fused CirculantFFT path computes each
    // shared operand's segment FFTs once; every kernel call is
    // GEMM-shaped across lanes.
    Matrix *gates[3] = {&s.g1, &s.g2, &s.g3};
    if (!fusedInput_.empty()) {
        for (Matrix *g : gates)
            g->setZero();
        circulant::computeSegmentSpectraBatch(
            x, fusedInput_.front()->blockSize(), ks.fft);
        for (std::size_t k = 0; k < 3; ++k)
            fusedInput_[k]->matvecAccFromSpectraBatch(*gates[k],
                                                      ks.fft);
    } else {
        p_.wzx->applyBatch(x, s.g1, ks);
        dp.post(s.g1.raw());
        p_.wrx->applyBatch(x, s.g2, ks);
        dp.post(s.g2.raw());
        p_.wcx->applyBatch(x, s.g3, ks);
        dp.post(s.g3.raw());
    }
    if (!fusedRec_.empty()) {
        circulant::computeSegmentSpectraBatch(
            state.c, fusedRec_.front()->blockSize(), ks.fft);
        for (std::size_t k = 0; k < 2; ++k)
            fusedRec_[k]->matvecAccFromSpectraBatch(*gates[k],
                                                    ks.fft);
    } else {
        p_.wzc->applyBatch(state.c, s.t1, ks);
        dp.post(s.t1.raw());
        addInPlace(s.g1.raw(), s.t1.raw());
        p_.wrc->applyBatch(state.c, s.t1, ks);
        dp.post(s.t1.raw());
        addInPlace(s.g2.raw(), s.t1.raw());
    }

    // Update gate (Eqn. 2a).
    addBiasRows(s.g1, p_.bz);
    dp.post(s.g1.raw());
    dp.activate(nn::ActKind::Sigmoid, s.g1.raw());
    dp.post(s.g1.raw());

    // Reset gate (Eqn. 2b).
    addBiasRows(s.g2, p_.br);
    dp.post(s.g2.raw());
    dp.activate(nn::ActKind::Sigmoid, s.g2.raw());
    dp.post(s.g2.raw());

    // Candidate from the reset-gated history (Eqn. 2c).
    s.t2.setZero();
    hadamardAcc(s.t2.raw(), s.g2.raw(), state.c.raw());
    dp.post(s.t2.raw());
    p_.wcc->applyBatch(s.t2, s.t1, ks);
    dp.post(s.t1.raw());
    addInPlace(s.g3.raw(), s.t1.raw());
    addBiasRows(s.g3, p_.bc);
    dp.post(s.g3.raw());
    dp.activate(p_.cfg.candidateAct, s.g3.raw());
    dp.post(s.g3.raw());

    // State blend (Eqn. 2d): c = (1-z).c' + z.c~ into t3.
    {
        const Vector &z = s.g1.raw();
        const Vector &cand = s.g3.raw();
        const Vector &prev = state.c.raw();
        Vector &out = s.t3.raw();
        for (std::size_t k = 0; k < out.size(); ++k)
            out[k] = (1.0 - z[k]) * prev[k] + z[k] * cand[k];
    }
    dp.post(s.t3.raw());

    std::copy(s.t3.raw().begin(), s.t3.raw().end(),
              y.raw().begin());
    std::swap(state.c, s.t3);
}

std::vector<const LinearKernel *>
CompiledGruLayer::kernels() const
{
    return {p_.wzx.get(), p_.wrx.get(), p_.wcx.get(),
            p_.wzc.get(), p_.wrc.get(), p_.wcc.get()};
}

} // namespace detail

namespace
{

/** Shared compile-time context: kernel selection + tensor freezing. */
struct CompileContext
{
    const CompileOptions &opts;
    bool fixedPoint;

    std::unique_ptr<LinearKernel> kernel(const nn::LinearOp &op) const
    {
        return KernelRegistry::instance().make(
            resolveBackend(opts.backend, op), op, opts);
    }

    /** Copy a bias-like tensor, rounding it per-tensor when the
     *  FixedPoint backend is active (quant::quantizeParams treats
     *  every bias as its own view). */
    Vector freeze(const Vector &v) const
    {
        Vector out = v;
        if (fixedPoint && !out.empty())
            quant::quantizeWithRangeAnalysis(out,
                                             opts.fixedPointBits);
        return out;
    }
};

detail::LstmParts
freezeLstm(const nn::LstmLayer &src, const CompileContext &ctx)
{
    detail::LstmParts p;
    p.cfg = src.config();
    p.wix = ctx.kernel(src.wix());
    p.wfx = ctx.kernel(src.wfx());
    p.wcx = ctx.kernel(src.wcx());
    p.wox = ctx.kernel(src.wox());
    p.wir = ctx.kernel(src.wir());
    p.wfr = ctx.kernel(src.wfr());
    p.wcr = ctx.kernel(src.wcr());
    p.wor = ctx.kernel(src.wor());
    if (src.wym())
        p.wym = ctx.kernel(*src.wym());
    p.bi = ctx.freeze(src.bi());
    p.bf = ctx.freeze(src.bf());
    p.bc = ctx.freeze(src.bc());
    p.bo = ctx.freeze(src.bo());
    if (p.cfg.peephole) {
        p.wic = ctx.freeze(src.wic());
        p.wfc = ctx.freeze(src.wfc());
        p.woc = ctx.freeze(src.woc());
    }
    return p;
}

detail::GruParts
freezeGru(const nn::GruLayer &src, const CompileContext &ctx)
{
    detail::GruParts p;
    p.cfg = src.config();
    p.wzx = ctx.kernel(src.wzx());
    p.wrx = ctx.kernel(src.wrx());
    p.wcx = ctx.kernel(src.wcx());
    p.wzc = ctx.kernel(src.wzc());
    p.wrc = ctx.kernel(src.wrc());
    p.wcc = ctx.kernel(src.wcc());
    p.bz = ctx.freeze(src.bz());
    p.br = ctx.freeze(src.br());
    p.bc = ctx.freeze(src.bc());
    return p;
}

} // namespace

std::size_t
CompiledModel::inputSize() const
{
    ernn_assert(!layers_.empty(), "empty compiled model");
    return layers_.front()->inputSize();
}

std::size_t
CompiledModel::storedParams() const
{
    std::size_t n = 0;
    for (const auto &l : layers_)
        n += l->storedParams();
    if (classifier_)
        n += classifier_->storedParams() + classifierBias_.size();
    return n;
}

std::string
CompiledModel::describe() const
{
    std::ostringstream os;
    os << "compiled[" << backendKindName(options_.backend) << "]";
    for (const auto &l : layers_)
        os << " " << l->kindName() << l->outputSize();
    os << " -> classes" << numClasses();
    if (datapath_.fixedPoint)
        os << " @" << options_.fixedPointBits << "-bit"
           << (datapath_.integerDatapath ? " int16" : " f64-emulated");
    return os.str();
}

CompiledModel
compile(const nn::StackedRnn &model, const CompileOptions &opts)
{
    ernn_assert(model.numLayers() > 0, "compile: empty model");
    ernn_assert(model.numClasses() > 0,
                "compile: classifier not attached");

    CompiledModel out;
    out.options_ = opts;
    out.datapath_ = detail::makeDatapath(opts);

    const CompileContext ctx{opts, out.datapath_.fixedPoint};

    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        const nn::RnnLayer &src = model.layer(i);
        if (const auto *lstm =
                dynamic_cast<const nn::LstmLayer *>(&src)) {
            out.layers_.push_back(
                std::make_unique<detail::CompiledLstmLayer>(
                    freezeLstm(*lstm, ctx)));
        } else if (const auto *gru =
                       dynamic_cast<const nn::GruLayer *>(&src)) {
            out.layers_.push_back(
                std::make_unique<detail::CompiledGruLayer>(
                    freezeGru(*gru, ctx)));
        } else {
            ernn_panic("compile: unknown layer kind '"
                       << src.kindName() << "'");
        }
    }

    out.classifier_ = ctx.kernel(model.classifier());
    out.classifierBias_ = ctx.freeze(model.classifierBias());
    ernn_assert(out.classifier_->outDim() == out.numClasses(),
                "compile: classifier shape mismatch");
    return out;
}

std::shared_ptr<const CompiledModel>
compileShared(const nn::StackedRnn &model, const CompileOptions &opts)
{
    // Friend access: the move constructor is private so arbitrary
    // callers cannot scatter half-moved models, but hoisting the
    // freshly compiled value onto the heap is exactly its purpose.
    return std::shared_ptr<const CompiledModel>(
        new CompiledModel(compile(model, opts)));
}

} // namespace ernn::runtime
