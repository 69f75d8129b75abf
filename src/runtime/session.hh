/**
 * @file
 * Inference sessions over a CompiledModel: batched multi-utterance
 * run() for offline scoring / throughput serving, and incremental
 * StreamState-based step() for streaming ASR. A session owns every
 * mutable buffer (recurrent state pools, gate scratch, the shared
 * FFT workspace), so the compiled model stays immutable and
 * shareable, and the per-frame path performs no heap allocation in
 * the steady state.
 *
 * There is one datapath: run() assigns utterances to lane slots
 * (columns of feature x lanes activation matrices) and advances them
 * in frame-lockstep, so every weight tensor streams through the
 * cache once per time step for the whole batch — one GEMM-shaped
 * kernel call per gate instead of a memory-bound matvec per lane —
 * and step() is the same batched path at one lane, over the
 * stream's one-column state. A lane's logits are therefore the same
 * bits whether its utterance is streamed, batched, or continuously
 * batched (runtime/stack_frame.hh holds the shared per-frame order).
 *
 * Concurrency contract: sessions and StreamStates are deliberately
 * lock-free single-driver objects — all cross-thread discipline
 * lives one layer up in serve::InferenceServer, whose lock ownership
 * is machine-checked via base/sync.hh annotations. A session's one
 * internally-locked component is its optional ThreadPool; its
 * stream bookkeeping (the lane pool, laneOrder_, StreamState
 * stamps) must only ever be touched by the driving thread.
 */

#ifndef ERNN_RUNTIME_SESSION_HH
#define ERNN_RUNTIME_SESSION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/compiled_model.hh"
#include "runtime/stack_frame.hh"
#include "runtime/thread_pool.hh"

namespace ernn::runtime
{

namespace detail
{
struct StreamStateAccess;
} // namespace detail

/**
 * Recurrent state of one utterance (voice stream). Obtain from
 * InferenceSession::newStream(); feed frames via step(). One session
 * can serve many concurrent streams, one state object each.
 *
 * Every state is stamped with the structural fingerprint of the
 * model that created (or restored) it, and step() refuses a state
 * whose stamp disagrees with its session's model: a mis-sized
 * recurrent vector would otherwise reach the kernels, whose matvec
 * inner loops trust the state dimensions (out-of-bounds reads, or —
 * on the fixed-point grid — silent divergence). States move freely
 * between sessions *of structurally identical models*; see
 * runtime::modelFingerprint() (checkpoint.hh) for what that means.
 */
class StreamState
{
  public:
    /** Rewind to the start-of-utterance (all-zero) state. Keeps the
     *  model stamp: resetting a restored stream yields exactly the
     *  fresh stream newStream() would have produced. */
    void reset();

    /** Frames consumed since the last reset (or carried over from
     *  the checkpoint this state was restored from). */
    std::size_t framesSeen() const { return frames_; }

  private:
    friend class InferenceSession;
    /** Checkpoint/restore (runtime/checkpoint.cc). */
    friend struct detail::StreamStateAccess;
    detail::StackState layers_; //!< one-column state per layer
    std::size_t frames_ = 0;
    std::uint64_t model_ = 0; //!< modelFingerprint() stamp
};

/** Output of one batched run. */
struct BatchResult
{
    /** Per-utterance logit sequences (frame-aligned). */
    std::vector<nn::Sequence> logits;

    /** Per-utterance greedy frame predictions (argmax of logits). */
    std::vector<std::vector<int>> predictions;
};

/**
 * One inference lane over a shared CompiledModel. The session owns
 * every mutable buffer, so any number of sessions can serve the same
 * model concurrently — but a single session is NOT thread-safe and
 * must be driven by one thread at a time. The model is borrowed and
 * must outlive the session.
 */
class InferenceSession
{
  public:
    /**
     * run()'s lane pool (batch-major state and scratch matrices) is
     * kept warm between calls up to this many lanes; a larger batch
     * is served, then its pool is released so one oversized batch
     * cannot pin lane state for the session's lifetime.
     */
    static constexpr std::size_t kMaxPooledLanes = 64;

    /**
     * @p computeThreads: intra-session parallelism for the batched
     * kernel calls — 0 inherits the model's
     * CompileOptions::computeThreads, 1 runs serial, N > 1 owns a
     * ThreadPool of N lanes (including the driving thread). Outputs
     * are bit-identical at any thread count.
     */
    explicit InferenceSession(const CompiledModel &model,
                              std::size_t computeThreads = 0);

    const CompiledModel &model() const { return model_; }

    /** Fresh start-of-utterance state sized for this model. */
    StreamState newStream() const;

    /**
     * Incremental streaming inference: consume one frame of one
     * utterance and return its logits. The returned reference stays
     * valid until the next step()/run() call on this session.
     */
    const Vector &step(StreamState &state, const Vector &frame);

    /**
     * Batched multi-utterance inference. Utterances are independent
     * recurrent streams pooled into batch-major matrices (one lane
     * per column) and advanced frame-lockstep through one batched
     * kernel call per weight tensor per time step. Lanes are ordered
     * longest-utterance-first so ragged batches retire lanes from
     * the tail (a pure shrink, no shuffling); results are
     * bit-identical to streaming each utterance through step().
     */
    BatchResult run(const std::vector<const nn::Sequence *> &batch);
    BatchResult run(const std::vector<nn::Sequence> &batch);

    /// @{ Single-utterance conveniences.
    nn::Sequence logits(const nn::Sequence &frames);
    std::vector<int> predictFrames(const nn::Sequence &frames);
    /// @}

  private:
    const CompiledModel &model_;
    std::uint64_t fingerprint_; //!< modelFingerprint(model_), cached

    /** Compute pool for the batched kernels (null = serial). Owned
     *  here; kernels_.pool borrows it, which survives session moves
     *  because the pool's address is stable under unique_ptr. */
    std::unique_ptr<ThreadPool> pool_;

    KernelScratch kernels_;
    detail::FrameBuffers frame_; //!< step()'s one-lane buffers

    /// @{ run()'s lane pool, reused across calls (capped at
    /// kMaxPooledLanes) and its lane -> utterance map.
    detail::LanePool lanePool_;
    std::vector<std::size_t> laneOrder_;
    /// @}
};

} // namespace ernn::runtime

#endif // ERNN_RUNTIME_SESSION_HH
