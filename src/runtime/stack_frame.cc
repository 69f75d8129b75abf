#include "runtime/stack_frame.hh"

#include <algorithm>

namespace ernn::runtime::detail
{

void
FrameBuffers::reshape(const CompiledModel &model, std::size_t lanes)
{
    const std::size_t n = model.numLayers();
    scratch.resize(n);
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        model.layer(i).initBatchScratch(scratch[i], lanes);
        out[i].reshape(model.layer(i).outputSize(), lanes);
    }
    in.reshape(model.inputSize(), lanes);
    logits.reshape(model.numClasses(), lanes);
}

void
LanePool::reset(const CompiledModel &model, std::size_t lanes)
{
    state.resize(model.numLayers());
    for (std::size_t i = 0; i < state.size(); ++i)
        model.layer(i).initBatchState(state[i], lanes);
    buf.reshape(model, lanes);
    highWater = std::max(highWater, lanes);
}

void
LanePool::resize(const CompiledModel &model, std::size_t lanes)
{
    if (state.size() != model.numLayers()) {
        // Released (or never sized): no lane is live to preserve.
        reset(model, lanes);
        return;
    }
    for (LayerBatchState &st : state)
        for (Matrix *m : {&st.h, &st.c})
            if (m->rows() > 0) {
                if (lanes > m->cols())
                    m->growCols(lanes);
                else
                    m->shrinkCols(lanes);
            }
    buf.reshape(model, lanes);
    highWater = std::max(highWater, lanes);
}

void
LanePool::release(KernelScratch &kernels)
{
    // Destroying the matrices releases their backing storage.
    state = StackState();
    buf = FrameBuffers();
    kernels.releaseLaneStaging();
    highWater = 0;
}

void
stepFrame(const CompiledModel &model, StackState &state,
          FrameBuffers &buf, KernelScratch &kernels)
{
    const Datapath &dp = model.datapath();
    // The deployed accelerator consumes fixed-point features
    // (quant::quantizeDataset is the training-side analogue): pin
    // the incoming frames to the value grid so every kernel input —
    // not just recurrent state — lives on it. Applied in native and
    // emulation modes alike; the shared grid is what makes the
    // integer MACs exact.
    dp.post(buf.in.raw());

    // New frame: recurrent state is about to change under stable
    // addresses, so retire any staged input codes.
    ++kernels.xqEpoch;
    const Matrix *cur = &buf.in;
    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        model.layer(i).stepBatch(*cur, state[i], buf.out[i],
                                 buf.scratch[i], kernels, dp);
        cur = &buf.out[i];
    }

    model.classifier().applyBatch(*cur, buf.logits, kernels);
    dp.post(buf.logits.raw());
    addBiasRows(buf.logits, model.classifierBias());
    dp.post(buf.logits.raw());
}

} // namespace ernn::runtime::detail
