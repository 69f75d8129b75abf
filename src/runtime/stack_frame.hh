/**
 * @file
 * One frame through a compiled stack, for every lane at once
 * (runtime-internal). InferenceSession::step() (one lane),
 * InferenceSession::run() and ContinuousBatch::stepAll() (many)
 * all advance their lanes through stepFrame(), so the per-frame
 * operation order that makes a lane's logits the same bits in every
 * caller is written exactly once. Each caller keeps only its own
 * frame gather / logit scatter and its lane policy.
 */

#ifndef ERNN_RUNTIME_STACK_FRAME_HH
#define ERNN_RUNTIME_STACK_FRAME_HH

#include <vector>

#include "runtime/compiled_model.hh"

namespace ernn::runtime::detail
{

/** Recurrent state of every lane, one entry per layer. */
using StackState = std::vector<LayerBatchState>;

/** Per-frame buffers of a lane pool; rewritten by every frame. */
struct FrameBuffers
{
    std::vector<LayerBatchScratch> scratch; //!< per-layer gate scratch
    std::vector<Matrix> out; //!< inter-layer activation matrices
    Matrix in;               //!< gathered input frames
    Matrix logits;           //!< classifier output

    /** Size (zero-filled, storage reused) for @p lanes lanes. */
    void reshape(const CompiledModel &model, std::size_t lanes);
};

/**
 * Recurrent state plus frame buffers for a changing set of lanes,
 * the shape run() and ContinuousBatch share.
 */
struct LanePool
{
    StackState state;
    FrameBuffers buf;
    std::size_t highWater = 0; //!< lanes allocated since release()

    /** Size for @p lanes lanes, each at the start-of-utterance
     *  (all-zero) state. */
    void reset(const CompiledModel &model, std::size_t lanes);

    /** Re-dimension to @p lanes lanes: the leading lanes keep their
     *  recurrent state, appended lanes start at zero. */
    void resize(const CompiledModel &model, std::size_t lanes);

    /** Drop every lane-proportional buffer, the kernel scratch's
     *  lane staging included; the next reset()/resize() regrows. */
    void release(KernelScratch &kernels);
};

/**
 * Advance every lane one frame. The caller has gathered the lanes'
 * frames into buf.in (inputSize x lanes); on return buf.logits holds
 * their logits and @p state has moved to the next frame. The order:
 * pin the input to the value grid, run the layers, then the
 * classifier, post, bias, post.
 */
void stepFrame(const CompiledModel &model, StackState &state,
               FrameBuffers &buf, KernelScratch &kernels);

} // namespace ernn::runtime::detail

#endif // ERNN_RUNTIME_STACK_FRAME_HH
