#include "runtime/continuous_batch.hh"

#include <utility>

#include "base/logging.hh"

namespace ernn::runtime
{

ContinuousBatch::ContinuousBatch(const CompiledModel &model,
                                 std::size_t computeThreads)
    : model_(model)
{
    const std::size_t threads = computeThreads != 0
        ? computeThreads : model.options().computeThreads;
    if (threads > 1) {
        pool_ = std::make_unique<ThreadPool>(threads);
        kernels_.pool = pool_.get();
    }

    lanePool_.reset(model, 0);
    laneLogits_.assign(model.numClasses(), 0.0);
    if (model.datapath().integerDatapath)
        kernels_.valueFormat = model.datapath().valueFormat;
}

void
ContinuousBatch::admit(const nn::Sequence *frames, FrameSink onFrame,
                       DoneSink onDone)
{
    ernn_assert(frames, "ContinuousBatch::admit: null utterance");
    if (frames->empty()) {
        if (onDone)
            onDone();
        return;
    }
    // The new lane joins at the start-of-utterance (zero) state.
    lanePool_.resize(model_, lanes_.size() + 1);
    lanes_.push_back(
        Lane{frames, 0, std::move(onFrame), std::move(onDone)});
}

void
ContinuousBatch::stepAll()
{
    if (lanes_.empty())
        return;
    const std::size_t in_dim = model_.inputSize();
    const std::size_t classes = model_.numClasses();
    const std::size_t active = lanes_.size();
    detail::FrameBuffers &buf = lanePool_.buf;

    // Gather this step's frames.
    for (std::size_t l = 0; l < active; ++l) {
        const Lane &lane = lanes_[l];
        const Vector &f = (*lane.frames)[lane.next];
        ernn_assert(f.size() == in_dim,
                    "ContinuousBatch: frame dim " << f.size()
                    << " != input dim " << in_dim);
        for (std::size_t r = 0; r < in_dim; ++r)
            buf.in.at(r, l) = f[r];
    }
    detail::stepFrame(model_, lanePool_.state, buf, kernels_);

    // Deliver lane columns.
    for (std::size_t l = 0; l < active; ++l) {
        Lane &lane = lanes_[l];
        for (std::size_t r = 0; r < classes; ++r)
            laneLogits_[r] = buf.logits.at(r, l);
        if (lane.onFrame)
            lane.onFrame(lane.next, laneLogits_,
                         static_cast<int>(argmax(laneLogits_)));
        ++lane.next;
    }

    // Retire completed lanes in place: swap the last live column
    // into the vacated slot, then shrink the pool once at the end.
    finished_.clear();
    std::size_t live = lanes_.size();
    std::size_t l = 0;
    while (l < live) {
        if (lanes_[l].next < lanes_[l].frames->size()) {
            ++l;
            continue;
        }
        finished_.push_back(std::move(lanes_[l].onDone));
        if (l != live - 1) {
            for (LayerBatchState &st : lanePool_.state)
                for (Matrix *m : {&st.h, &st.c})
                    if (m->rows() > 0)
                        m->swapCols(l, live - 1);
            lanes_[l] = std::move(lanes_[live - 1]);
        }
        --live;
        lanes_.pop_back();
        // Do not advance l: the swapped-in lane needs examining.
    }
    if (live != active)
        lanePool_.resize(model_, live);

    // One oversized burst must not pin lane-pool memory for the
    // engine's lifetime (mirrors InferenceSession's high-water cap).
    if (lanes_.empty() && lanePool_.highWater > kMaxPooledLanes)
        lanePool_.release(kernels_);

    // Completion callbacks run last, with the pool consistent.
    for (DoneSink &done : finished_)
        if (done)
            done();
    finished_.clear();
}

} // namespace ernn::runtime
