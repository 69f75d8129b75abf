#include <algorithm>
#include <filesystem>
#include <unistd.h>

#include "runtime/artifact.hh"
#include "workloads.hh"

namespace ernn::perfbench
{

nn::ModelSpec
paperLstmSpec()
{
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = 40;
    spec.numClasses = 39;
    spec.layerSizes = {1024};
    spec.blockSizes = {8};
    spec.peephole = true;
    spec.projectionSize = 512;
    return spec;
}

speech::FrontendConfig
frontendConfig()
{
    speech::FrontendConfig cfg;
    cfg.melBands = 40;
    return cfg;
}

void
normalizeFrame(Vector &frame)
{
    for (auto &x : frame)
        x = (x - 3.0) / 4.0;
}

void
pushChunks(const speech::AcousticFrontend &fe,
           speech::FrontendState &state, const Vector &samples,
           nn::Sequence &out)
{
    const std::size_t chunk = fe.config().frameShift;
    const auto sink = [&out](const Vector &frame) {
        out.push_back(frame);
    };
    for (std::size_t i = 0; i < samples.size(); i += chunk)
        fe.push(state, samples.data() + i,
                std::min(chunk, samples.size() - i), sink);
}

namespace
{

/** Wall times of one set-up and of its parts. */
struct SetupTimes
{
    double total = 0.0;
    double compile = 0.0;
    double artifactLoad = 0.0;
    double artifactBytes = 0.0;
};

Serving
setUpServing(const nn::StackedRnn &model,
             const runtime::CompileOptions &copts,
             const serve::ServerOptions &sopts, const std::string &path,
             const nn::Sequence &warm, SetupTimes &times)
{
    const auto t0 = Clock::now();
    {
        const runtime::CompiledModel compiled =
            runtime::compile(model, copts);
        times.compile = secondsSince(t0);
        runtime::saveArtifact(compiled, path);
    }
    const auto t1 = Clock::now();
    runtime::MapOptions map;
    map.verifyBlobs = true;
    Serving s;
    s.model = runtime::loadArtifactMapped(path, map);
    times.artifactLoad = secondsSince(t1);
    s.server = std::make_unique<serve::InferenceServer>(s.model, sopts);
    s.server->infer(warm);
    times.total = secondsSince(t0);
    times.artifactBytes =
        static_cast<double>(std::filesystem::file_size(path));
    return s;
}

} // namespace

Serving
setUpServingRepeated(const nn::StackedRnn &model,
                     const runtime::CompileOptions &copts,
                     const serve::ServerOptions &sopts,
                     const std::string &path, const nn::Sequence &warm,
                     std::size_t count, SetupSamples &samples)
{
    Serving s;
    SetupTimes t;
    for (std::size_t i = 0; i < count; ++i) {
        // The previous server drains and joins before the next
        // set-up, so set-ups never overlap.
        s = Serving{};
        s = setUpServing(model, copts, sopts, path, warm, t);
        samples.total.push_back(t.total);
        samples.compile.push_back(t.compile);
        samples.load.push_back(t.artifactLoad);
        samples.artifactBytes = t.artifactBytes;
    }
    return s;
}

void
SetupSamples::report(double &setupS, LayerValues &layers) const
{
    setupS = median(total);
    layers["runtime.compile_s"] = median(compile);
    layers["runtime.artifact_load_s"] = median(load);
    layers["runtime.artifact_bytes"] = artifactBytes;
}

std::string
artifactPath(const RunArgs &args, const std::string &tag)
{
    std::filesystem::create_directories(args.outDir);
    return args.outDir + "/" + tag + "-" + std::to_string(::getpid()) +
           ".ernn";
}

std::vector<int>
greedyCollapse(const nn::Sequence &logits)
{
    std::vector<int> out;
    for (const auto &frame : logits) {
        int best = 0;
        for (std::size_t k = 1; k < frame.size(); ++k)
            if (frame[k] > frame[static_cast<std::size_t>(best)])
                best = static_cast<int>(k);
        if (out.empty() || out.back() != best)
            out.push_back(best);
    }
    return out;
}

} // namespace ernn::perfbench
