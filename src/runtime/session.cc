#include "runtime/session.hh"

#include <algorithm>

#include "base/logging.hh"
#include "runtime/checkpoint.hh"

namespace ernn::runtime
{

void
StreamState::reset()
{
    for (auto &l : layers_) {
        l.h.setZero();
        l.c.setZero();
    }
    frames_ = 0;
}

InferenceSession::InferenceSession(const CompiledModel &model,
                                   std::size_t computeThreads)
    : model_(model), fingerprint_(modelFingerprint(model))
{
    const std::size_t threads = computeThreads != 0
        ? computeThreads : model.options().computeThreads;
    if (threads > 1) {
        pool_ = std::make_unique<ThreadPool>(threads);
        kernels_.pool = pool_.get();
    }

    frame_.reshape(model, 1);
    // Arm the scratch for the native integer datapath: FixedPoint
    // kernels see the value grid their inputs live on and requantize
    // onto it in integer arithmetic. Left unarmed (emulation mode,
    // widths > 16 bits, other backends), kernels run the f64 path.
    if (model.datapath().integerDatapath)
        kernels_.valueFormat = model.datapath().valueFormat;
}

StreamState
InferenceSession::newStream() const
{
    StreamState state;
    state.layers_.resize(model_.numLayers());
    for (std::size_t i = 0; i < model_.numLayers(); ++i)
        model_.layer(i).initBatchState(state.layers_[i], 1);
    state.model_ = fingerprint_;
    return state;
}

const Vector &
InferenceSession::step(StreamState &state, const Vector &frame)
{
    // The fingerprint stamp covers per-layer state geometry and the
    // datapath's value grid: a state created for (or restored into)
    // a structurally different model must never reach the kernels,
    // whose inner loops trust these dimensions.
    ernn_assert(state.model_ == fingerprint_ &&
                state.layers_.size() == model_.numLayers(),
                "step: stream belongs to a different model");
    ernn_assert(frame.size() == model_.inputSize(),
                "step: frame dim " << frame.size() << " != input dim "
                << model_.inputSize());

    // One lane: the input column is the frame itself.
    std::copy(frame.begin(), frame.end(), frame_.in.raw().begin());
    detail::stepFrame(model_, state.layers_, frame_, kernels_);
    ++state.frames_;
    return frame_.logits.raw();
}

BatchResult
InferenceSession::run(const std::vector<const nn::Sequence *> &batch)
{
    const std::size_t b = batch.size();
    const std::size_t classes = model_.numClasses();
    const std::size_t in_dim = model_.inputSize();
    BatchResult out;
    out.logits.resize(b);
    out.predictions.resize(b);

    laneOrder_.clear();
    for (std::size_t u = 0; u < b; ++u) {
        ernn_assert(batch[u], "run: null utterance in batch");
        // Pre-size every frame of the result now: the time loop
        // scatters kernel output straight into this storage and
        // performs no steady-state allocation.
        out.logits[u].assign(batch[u]->size(),
                             Vector(classes, 0.0));
        out.predictions[u].assign(batch[u]->size(), 0);
        if (!batch[u]->empty())
            laneOrder_.push_back(u);
    }
    // Longest utterance first: as t passes each length, lanes retire
    // strictly from the tail, so the active set stays a contiguous
    // prefix and retirement is a pure column shrink — no shuffling,
    // and the lane -> utterance map never changes.
    std::stable_sort(laneOrder_.begin(), laneOrder_.end(),
                     [&](std::size_t lhs, std::size_t rhs) {
                         return batch[lhs]->size() >
                                batch[rhs]->size();
                     });

    std::size_t active = laneOrder_.size();
    if (active == 0)
        return out;
    lanePool_.reset(model_, active);
    detail::FrameBuffers &buf = lanePool_.buf;

    for (std::size_t t = 0; active > 0; ++t) {
        // Retire lanes whose utterance ended.
        std::size_t still = active;
        while (still > 0 &&
               batch[laneOrder_[still - 1]]->size() <= t)
            --still;
        if (still == 0)
            break;
        if (still != active) {
            // Recurrent state survives retirement: the leading lanes
            // are repacked in place.
            lanePool_.resize(model_, still);
            active = still;
        }

        // Gather this step's frames into the input matrix.
        for (std::size_t l = 0; l < active; ++l) {
            const Vector &f = (*batch[laneOrder_[l]])[t];
            ernn_assert(f.size() == in_dim,
                        "run: frame dim " << f.size()
                        << " != input dim " << in_dim);
            for (std::size_t r = 0; r < in_dim; ++r)
                buf.in.at(r, l) = f[r];
        }
        detail::stepFrame(model_, lanePool_.state, buf, kernels_);

        // Scatter lane columns into the pre-sized per-utterance
        // results.
        for (std::size_t l = 0; l < active; ++l) {
            const std::size_t u = laneOrder_[l];
            Vector &dst = out.logits[u][t];
            for (std::size_t r = 0; r < classes; ++r)
                dst[r] = buf.logits.at(r, l);
            out.predictions[u][t] = static_cast<int>(argmax(dst));
        }
    }

    // One oversized batch must not pin lane-pool memory for the
    // session's lifetime: past the high-water cap the pool is
    // released outright and regrown (smaller) by the next run().
    if (lanePool_.highWater > kMaxPooledLanes)
        lanePool_.release(kernels_);
    return out;
}

BatchResult
InferenceSession::run(const std::vector<nn::Sequence> &batch)
{
    std::vector<const nn::Sequence *> ptrs;
    ptrs.reserve(batch.size());
    for (const auto &seq : batch)
        ptrs.push_back(&seq);
    return run(ptrs);
}

nn::Sequence
InferenceSession::logits(const nn::Sequence &frames)
{
    return std::move(run({&frames}).logits.front());
}

std::vector<int>
InferenceSession::predictFrames(const nn::Sequence &frames)
{
    return std::move(run({&frames}).predictions.front());
}

InferenceSession
CompiledModel::createSession(std::size_t computeThreads) const
{
    return InferenceSession(*this, computeThreads);
}

} // namespace ernn::runtime
