/**
 * @file
 * Continuous batching engine: the admission-side mirror of run()'s
 * ragged retirement. InferenceSession::run() serves one closed batch
 * — every utterance is known up front, lanes only ever *retire* as
 * utterances end. A serving process sees the opposite shape: requests
 * arrive while the batch is in flight, and holding them until the
 * current batch drains wastes the very lanes that just freed up.
 *
 * ContinuousBatch keeps one live batch-major lane pool and lets the
 * scheduler admit a new utterance between any two time steps: the
 * state matrices grow one zeroed column (Matrix::growCols — the
 * start-of-utterance state), the new lane joins the next stepAll(),
 * and when a lane's utterance ends it is retired immediately — the
 * last live column is swapped into its slot (Matrix::swapCols) and
 * the pool shrinks, so the pool never carries a dead lane for even
 * one step.
 *
 * Column independence is what makes this sound: every batched kernel
 * computes column l from column l alone, in one arithmetic order at
 * any lane count, and stepAll() advances the pool through the same
 * per-frame function as InferenceSession (runtime/stack_frame.hh) —
 * so each lane's logits are bit-identical to streaming its utterance
 * alone through InferenceSession::step(), regardless of what was
 * admitted or retired around it. The engine is single-threaded, like
 * InferenceSession: one scheduler thread drives admit()/stepAll().
 *
 * Concurrency contract: the engine holds no locks of its own — it is
 * externally synchronized by construction. InferenceServer's engine
 * thread is the only caller, and it enters admit() with the server's
 * mu_ held (InferenceServer::admitLane carries ERNN_REQUIRES(mu_),
 * so that discipline is machine-checked on the clang CI leg) and
 * drives stepAll() off-lock. The owned ThreadPool (base/sync.hh
 * primitives) is the one internally-locked component.
 */

#ifndef ERNN_RUNTIME_CONTINUOUS_BATCH_HH
#define ERNN_RUNTIME_CONTINUOUS_BATCH_HH

#include <functional>
#include <memory>
#include <vector>

#include "runtime/compiled_model.hh"
#include "runtime/stack_frame.hh"
#include "runtime/thread_pool.hh"

namespace ernn::runtime
{

/**
 * Live lane pool with mid-flight admission. Borrow the model (it
 * must outlive the engine) and the admitted frame sequences (each
 * must stay valid until its lane's DoneSink fires).
 */
class ContinuousBatch
{
  public:
    /**
     * Per-frame delivery: frame index within the utterance, that
     * frame's logits, and their argmax. The logits reference is only
     * valid for the duration of the call. Invoked from stepAll(), in
     * lane order; sinks must not call back into the engine.
     */
    using FrameSink = std::function<void(
        std::size_t frame, const Vector &logits, int prediction)>;

    /** Invoked once after a lane's last frame was delivered (or
     *  immediately on admission of an empty utterance). */
    using DoneSink = std::function<void()>;

    /** Lane-pool high-water cap, as InferenceSession::run(): once
     *  the pool drains, storage beyond this is released. */
    static constexpr std::size_t kMaxPooledLanes = 64;

    /** @p computeThreads as InferenceSession: 0 inherits the model's
     *  CompileOptions::computeThreads, N > 1 owns a pool of N lanes. */
    explicit ContinuousBatch(const CompiledModel &model,
                             std::size_t computeThreads = 0);

    const CompiledModel &model() const { return model_; }

    /**
     * Admit one utterance as a fresh lane starting at the all-zero
     * start-of-utterance state. Callable between any two stepAll()
     * calls; the lane serves its first frame on the next stepAll().
     * An empty utterance completes immediately and occupies no lane.
     */
    void admit(const nn::Sequence *frames, FrameSink onFrame,
               DoneSink onDone);

    /** Lanes currently in flight. */
    std::size_t activeLanes() const { return lanes_.size(); }

    bool idle() const { return lanes_.empty(); }

    /**
     * Advance every live lane one time step: one batched kernel call
     * per weight tensor, per-lane logits delivered through each
     * lane's FrameSink, completed lanes retired in place. No-op when
     * idle.
     */
    void stepAll();

  private:
    struct Lane
    {
        const nn::Sequence *frames;
        std::size_t next; //!< next frame index to serve
        FrameSink onFrame;
        DoneSink onDone;
    };

    const CompiledModel &model_;
    std::unique_ptr<ThreadPool> pool_; //!< compute pool (null = serial)
    KernelScratch kernels_;
    detail::LanePool lanePool_;
    Vector laneLogits_;       //!< per-lane delivery staging
    std::vector<Lane> lanes_; //!< lane l <-> column l
    std::vector<DoneSink> finished_; //!< staged completion callbacks
};

} // namespace ernn::runtime

#endif // ERNN_RUNTIME_CONTINUOUS_BATCH_HH
