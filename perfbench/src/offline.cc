/**
 * @file
 * offline_int16: bulk transcription at the paper's deployment point.
 * Rounds of 16 synthetic utterances go samples -> chunked frontend ->
 * InferenceServer (1 worker, maxBatch 16, 2 compute threads) over a
 * 12-bit FixedPoint LSTM-1024/peephole/proj-512 at block 8 served from
 * a mapped v3 artifact -> CTC beam search. One client thread, closed
 * loop: a round is submitted whole to the idle server and rides one
 * batch. The round then sends its four 2-segment utterances alone, one
 * after another, to time a single request on the idle server -- the
 * latency an interactive caller sees, which the bulk replies (all
 * finishing with their batch) do not show.
 */
#include <cmath>
#include <cstdio>
#include <future>

#include "base/random.hh"
#include "nn/model_builder.hh"
#include "reference.hh"
#include "runtime/session.hh"
#include "speech/ctc_decoder.hh"
#include "workloads.hh"

namespace ernn::perfbench
{

namespace
{

constexpr std::size_t kLanes = 16;      //!< utterances per round
constexpr std::size_t kPoolRounds = 4;  //!< distinct rounds of audio
constexpr std::size_t kSetups = 40; //!< half before, half after
constexpr std::size_t kSoloFirst = 1;  //!< lanes 1, 5, 9, 13: 2 segments
constexpr std::size_t kSoloStride = 4;
constexpr std::size_t kBeam = 4;

/**
 * The utterance pool: every round holds four utterances of each of
 * 1..4 phone segments of 100 ms (8, 18, 28 and 38 frames), so the
 * work per round is the same for every seed; the seed picks phones,
 * phases and noise.
 */
std::vector<Vector>
makePool(std::uint64_t seed)
{
    std::vector<std::vector<Vector>> byClass;
    for (std::size_t segs = 1; segs <= 4; ++segs) {
        speech::WaveAsrConfig cfg;
        cfg.utterances = kPoolRounds * kLanes / 4;
        cfg.minSegments = cfg.maxSegments = segs;
        cfg.minSegmentMs = cfg.maxSegmentMs = 100;
        cfg.seed = seed * 7919 + segs;
        std::vector<Vector> waves;
        for (auto &u : speech::makeSyntheticWaves(cfg))
            waves.push_back(std::move(u.samples));
        byClass.push_back(std::move(waves));
    }
    std::vector<Vector> pool;
    for (std::size_t i = 0; i < kPoolRounds * kLanes / 4; ++i)
        for (auto &cls : byClass)
            pool.push_back(cls[i]);
    return pool;
}

/** Everything one round produced, kept for round 0's checks. */
struct RoundOutput
{
    std::vector<nn::Sequence> rawFrames; //!< frontend output
    std::vector<nn::Sequence> inputs;    //!< normalized, as served
    std::vector<serve::InferenceReply> replies; //!< empty if failed
    std::vector<bool> served;
    std::vector<std::vector<speech::CtcHypothesis>> decoded;
};

struct Window
{
    std::vector<double> roundRates; //!< bulk frames/s per round
    std::vector<double> soloMs;     //!< solo request latencies
    std::vector<double> queueMs;
    std::size_t frames = 0;
    std::uint64_t ops = 0, failed = 0;
    /** ServerStats deltas over the bulk batches (solo requests
     *  excluded): compute time, frames, batches and their lanes. */
    double computeUs = 0.0, served = 0.0, batches = 0.0, lanes = 0.0;
};

Window
measure(double windowS, const std::vector<Vector> &pool,
        const speech::AcousticFrontend &fe, serve::InferenceServer &server,
        Tracer &tr, RoundOutput *keep)
{
    Window w;
    speech::CtcDecodeOptions ctc;
    ctc.beamWidth = kBeam;
    speech::FrontendState state = fe.newState();
    const auto t0 = Clock::now();
    for (std::size_t round = 0;
         round < 2 || secondsSince(t0) < windowS; ++round) {
        Tracer::Scope roundSpan(tr, "bench.round");
        const auto r0 = Clock::now();
        const std::size_t base = (round % kPoolRounds) * kLanes;
        RoundOutput out;
        std::size_t frames = 0;
        {
            Tracer::Scope s(tr, "speech.frontend");
            for (std::size_t i = 0; i < kLanes; ++i) {
                fe.reset(state);
                nn::Sequence f;
                pushChunks(fe, state, pool[base + i], f);
                out.rawFrames.push_back(std::move(f));
            }
        }
        for (const auto &f : out.rawFrames) {
            nn::Sequence in = f;
            for (auto &frame : in)
                normalizeFrame(frame);
            frames += in.size();
            out.inputs.push_back(std::move(in));
        }
        const serve::ServerStats before = server.stats();
        std::vector<std::future<serve::InferenceReply>> futures(kLanes);
        {
            Tracer::Scope s(tr, "serve.submit");
            for (std::size_t i = 0; i < kLanes; ++i) {
                ++w.ops;
                attempt(w.failed, [&] {
                    futures[i] = server.submit(out.inputs[i]);
                });
            }
        }
        {
            Tracer::Scope s(tr, "serve.wait");
            for (auto &f : futures) {
                serve::InferenceReply reply;
                const bool ok =
                    f.valid() && attempt(w.failed, [&] { reply = f.get(); });
                if (ok)
                    w.queueMs.push_back(reply.timing.queueMicros / 1e3);
                out.replies.push_back(std::move(reply));
                out.served.push_back(ok);
            }
        }
        {
            Tracer::Scope s(tr, "speech.ctc");
            for (const auto &r : out.replies)
                out.decoded.push_back(speech::ctcDecodeBeam(r.logits, ctc));
        }
        w.roundRates.push_back(double(frames) / secondsSince(r0));
        const serve::ServerStats after = server.stats();
        w.computeUs += after.computeMicros.sum() - before.computeMicros.sum();
        w.served += double(after.framesProcessed - before.framesProcessed);
        w.batches +=
            double(after.batchesDispatched - before.batchesDispatched);
        w.lanes += after.batchSize.sum() - before.batchSize.sum();
        {
            Tracer::Scope s(tr, "serve.solo");
            for (std::size_t i = kSoloFirst; i < kLanes;
                 i += kSoloStride) {
                ++w.ops;
                const auto t = Clock::now();
                if (attempt(w.failed, [&] { server.infer(out.inputs[i]); }))
                    w.soloMs.push_back(1e3 * secondsSince(t));
            }
        }
        w.frames += frames;
        if (round == 0 && keep)
            *keep = std::move(out);
    }
    return w;
}

/** Dense-equivalent MACs of one frame through the int16 datapath
 *  (each circulant block row is one contiguous dot product over the
 *  doubled generator) and the weight bytes one time step streams. */
void
computedCosts(const nn::ModelSpec &spec, double &macs, double &bytes)
{
    macs = 0.0;
    bytes = 0.0;
    for (const auto &m : nn::weightInventory(spec)) {
        macs += double(m.rows) * double(m.cols);
        // int16 codes; circulant generators are stored doubled.
        bytes += 2.0 * double(m.params()) * (m.blockSize > 1 ? 2.0 : 1.0);
    }
}

void
checkRound(const RoundOutput &out, const std::vector<Vector> &pool,
           const speech::AcousticFrontend &fe,
           const runtime::CompiledModel &model, const ref::Model &refModel,
           Result &res)
{
    const double tol =
        kInt16TolSteps *
        std::ldexp(1.0, -model.datapath().valueFormat.fracBits);
    auto session = model.createSession(1);
    double worst = 0.0;
    for (std::size_t i = 0; i < kLanes; ++i) {
        if (!out.served[i])
            continue; // counted as a failed operation
        const Vector &samples = pool[i];
        res.check(ref::bitEqual(out.rawFrames[i], fe.process(samples)),
                  "offline: chunked frontend differs from process()");
        const auto &raw = out.rawFrames[i];
        for (std::size_t t : {std::size_t(0), raw.size() / 2,
                              raw.size() - 1}) {
            const nn::Sequence want{
                ref::logMelFrame(samples, t, fe.config())};
            res.check(ref::maxAbsDiff({raw[t]}, want) <= 1e-8,
                      "offline: log-mel differs from the naive DFT");
        }
        const auto &reply = out.replies[i];
        res.check(ref::bitEqual(reply.logits,
                                session.logits(out.inputs[i])),
                  "offline: reply differs from a solo session run");
        const double d = ref::maxAbsDiff(
            reply.logits, ref::forward(refModel, out.inputs[i]));
        worst = std::max(worst, d);
        res.check(d <= tol, "offline: int16 logits outside " +
                                std::to_string(tol) +
                                " of the f64 reference");
        speech::CtcDecodeOptions greedy;
        greedy.beamWidth = 1;
        res.check(speech::ctcDecode(reply.logits, greedy).labels ==
                      greedyCollapse(reply.logits),
                  "offline: beam-1 CTC differs from greedy collapse");
        const auto &hyps = out.decoded[i];
        bool ordered = !hyps.empty();
        for (std::size_t h = 0; h < hyps.size(); ++h) {
            ordered = ordered && hyps[h].logProb <= 1e-9 &&
                      (h == 0 || hyps[h].logProb <= hyps[h - 1].logProb);
            for (int label : hyps[h].labels)
                ordered = ordered && label >= 0 &&
                          label < int(model.numClasses());
        }
        res.check(ordered, "offline: CTC beam not a valid ranking");
    }
    std::fprintf(stderr, "offline_int16: max |int16 - f64| = %.6f "
                         "(tolerance %.6f)\n", worst, tol);
}

} // namespace

Result
runOfflineInt16(const RunArgs &args)
{
    Result res;
    LayerValues layers;
    const nn::ModelSpec spec = paperLstmSpec();
    nn::StackedRnn net = nn::buildModel(spec);
    Rng rng(args.seed);
    net.initXavier(rng);
    const speech::AcousticFrontend fe(frontendConfig());
    const std::vector<Vector> pool = makePool(args.seed);

    nn::Sequence warm = fe.process(pool[0]);
    for (auto &f : warm)
        normalizeFrame(f);
    runtime::CompileOptions copts;
    copts.backend = runtime::BackendKind::FixedPoint;
    copts.fixedPointBits = 12;
    serve::ServerOptions sopts;
    sopts.workers = 1;
    sopts.maxBatch = kLanes;
    sopts.computeThreads = 2;
    // Long enough that a round's 16 back-to-back submissions always
    // coalesce into one batch.
    sopts.batchTimeout = std::chrono::microseconds(5000);
    const std::string path = artifactPath(args, "offline_int16");
    SetupSamples setups;
    Serving serving = setUpServingRepeated(net, copts, sopts, path, warm,
                                           kSetups / 2, setups);

    Tracer off(false), on(true);
    RoundOutput kept;
    Window w = measure(args.trace ? args.seconds / 2 : args.seconds, pool,
                       fe, *serving.server, off, &kept);
    Window tw;
    if (args.trace)
        tw = measure(args.seconds / 2, pool, fe, *serving.server, on,
                     nullptr);
    const Window &lw = args.trace ? tw : w;
    res.attempted = w.ops + tw.ops;
    res.failed = w.failed + tw.failed;

    const ref::Model refModel = ref::fromModel(net);
    checkRound(kept, pool, fe, *serving.model, refModel, res);

    // The middle half of the rounds (see README, "Per-run estimators").
    const double fps = interquartileMean(w.roundRates);
    if (args.trace) {
        double macs = 0.0, bytes = 0.0;
        computedCosts(spec, macs, bytes);
        const double lanes = lw.lanes / lw.batches;
        layers["runtime.compute_us_per_frame"] = lw.computeUs / lw.served;
        layers["runtime.macs_per_frame"] = macs;
        layers["runtime.weight_bytes_per_frame"] = bytes / lanes;
        layers["runtime.gmac_per_s"] =
            macs * lw.served / lw.computeUs / 1e3;
        layers["serve.queue_wait_ms_p50"] = median(lw.queueMs);
        layers["serve.batch_lanes_mean"] = lanes;
        const double fe_s = on.total("speech.frontend");
        const double ctc_s = on.total("speech.ctc");
        layers["speech.frontend_busy_s"] = fe_s;
        layers["speech.frontend_frames_per_s"] = double(lw.frames) / fe_s;
        layers["speech.ctc_busy_s"] = ctc_s;
        layers["speech.ctc_frames_per_s"] = double(lw.frames) / ctc_s;
        layers["trace.overhead_pct"] =
            100.0 * (fps / interquartileMean(tw.roundRates) - 1.0);
        for (const auto &[layer, self] : on.selfSecondsByLayer())
            layers[layer + ".self_s"] = self;
        on.writeChromeTrace(args.outDir + "/trace-offline_int16-" +
                            std::to_string(args.seed) + ".json");
    }
    // The second half of the set-ups, a run's length after the first:
    // their median then stands for the whole run, not one moment of it.
    serving = Serving{};
    setUpServingRepeated(net, copts, sopts, path, warm, kSetups / 2,
                         setups);
    std::remove(path.c_str());
    double setupS = 0.0;
    setups.report(setupS, layers);
    res.endToEnd = {{"setup_s", setupS, "s"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                    {"frames_per_s", fps, "frames/s"},
                    {"step_p50_ms", median(w.soloMs), "ms"}};
    for (const auto &[name, value] : layers)
        res.perLayer.push_back({name, value, ""});
    return res;
}

} // namespace ernn::perfbench
