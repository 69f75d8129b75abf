/**
 * @file
 * The benchmark's three workloads and the helpers they share. Each
 * workload builds its inputs from the seed alone, measures for the
 * requested number of seconds in whole rounds, checks libernn's
 * outputs against the independent reference (reference.hh) or a
 * property of the method, and returns its metrics.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "nn/model_builder.hh"
#include "runtime/compiled_model.hh"
#include "serve/inference_server.hh"
#include "speech/frontend.hh"

namespace ernn::perfbench
{

/** Per-layer values a workload measured, keyed by metric name. */
using LayerValues = std::map<std::string, double>;

Result runOfflineInt16(const RunArgs &args);
Result runLiveGruFft(const RunArgs &args);
Result runTrainTrial(const RunArgs &args);

/**
 * Tolerance of the int16 datapath's logits against the exact f64
 * forward, in steps of its 12-bit value grid (2^-fracBits). The path
 * rounds weights, the input, every gate, cell and projection value
 * and the PWL activations onto that grid; the worst deviation seen on
 * the offline_int16 model is about 7 steps.
 */
constexpr double kInt16TolSteps = 32.0;

// --- shared by the two serving workloads ------------------------------

/** The paper's Table III LSTM: 1024 cells, peephole, projection 512,
 *  block 8, on 40 log-mel inputs with 39 phone classes. */
nn::ModelSpec paperLstmSpec();

/** 16 kHz log-mel frontend, 40 bands (a multiple of block size 8). */
speech::FrontendConfig frontendConfig();

/** Fixed affine feature scaling applied by the client before
 *  serving: keeps log-mel values inside the 12-bit value grid's
 *  +-8 clamp range. Stateless, so streams can use it frame by frame. */
void normalizeFrame(Vector &frame);

/** Feed @p samples through @p state in 10 ms chunks, appending the
 *  completed frames to @p out. */
void pushChunks(const speech::AcousticFrontend &fe,
                speech::FrontendState &state, const Vector &samples,
                nn::Sequence &out);

/** One served model: the mapped artifact's model and its server. */
struct Serving
{
    std::shared_ptr<const runtime::CompiledModel> model;
    std::unique_ptr<serve::InferenceServer> server;
};

/** Wall times of repeated serving set-ups. */
struct SetupSamples
{
    std::vector<double> total, compile, load;
    double artifactBytes = 0.0;

    /** Report the medians: @p setupS and the per-layer set-up
     *  metrics in @p layers. */
    void report(double &setupS, LayerValues &layers) const;
};

/**
 * Run @p count serving set-ups, as a deployment pays them -- compile
 * @p model, write the v3 artifact to @p path, map it back with blob
 * verification, start the server, serve the @p warm request --
 * adding their times to @p samples, and return the last one, serving.
 * Each set-up is torn down before the next starts, so they never
 * overlap; the caller tears down any server it holds first too.
 */
Serving setUpServingRepeated(const nn::StackedRnn &model,
                             const runtime::CompileOptions &copts,
                             const serve::ServerOptions &sopts,
                             const std::string &path,
                             const nn::Sequence &warm, std::size_t count,
                             SetupSamples &samples);

/** Artifact path for this process under @p outDir. */
std::string artifactPath(const RunArgs &args, const std::string &tag);

/** Independent greedy decode: argmax per frame, repeats merged. */
std::vector<int> greedyCollapse(const nn::Sequence &logits);

} // namespace ernn::perfbench

#endif // PERFBENCH_WORKLOADS_HH
