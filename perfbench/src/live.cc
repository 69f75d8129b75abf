/**
 * @file
 * live_gru_fft: long-form live speech on a CirculantFFT GRU-1024 at
 * block 8, served by 2 workers with 1 compute thread each. Eight
 * streams, each a closed loop with one frame in flight, push 10 ms
 * sample chunks through their own FrontendState into
 * InferenceServer::Stream::step. Every kCutFrames frames a stream is
 * cut with checkpoint() -- its frontend state riding in the aux
 * payload -- and resumed on a fresh stream. A closed loop of
 * background batch utterances shares the server.
 *
 * One client thread drives everything by polling the futures, so the
 * process holds 3 threads (client + 2 workers) and a completion is
 * seen within one poll pass of when it happens.
 */
#include <cstdio>
#include <future>

#include "base/random.hh"
#include "circulant/mult_model.hh"
#include "nn/model_builder.hh"
#include "reference.hh"
#include "runtime/checkpoint.hh"
#include "runtime/session.hh"
#include "speech/ctc_decoder.hh"
#include "workloads.hh"

namespace ernn::perfbench
{

namespace
{

constexpr std::size_t kStreams = 8;
constexpr std::size_t kCutFrames = 64;
constexpr std::size_t kBgInFlight = 2;
constexpr std::size_t kBgUtterances = 4;
constexpr std::size_t kSetups = 40; //!< half before, half after
constexpr std::size_t kCheckedFrames = 256; //!< stream 0 vs reference
constexpr double kWarmupS = 1.0;
constexpr std::size_t kRoundFrames = 200; //!< stream frames per round
constexpr std::size_t kBgRoundReplies = 8; //!< background replies per round

nn::ModelSpec
gruSpec()
{
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Gru;
    spec.inputDim = 40;
    spec.numClasses = 39;
    spec.layerSizes = {1024};
    spec.blockSizes = {8};
    return spec;
}

/** @p count utterances of @p segments 200 ms phone segments. */
std::vector<Vector>
makeWaves(std::uint64_t seed, std::size_t count, std::size_t segments)
{
    speech::WaveAsrConfig cfg;
    cfg.utterances = count;
    cfg.minSegments = cfg.maxSegments = segments;
    cfg.minSegmentMs = cfg.maxSegmentMs = 200;
    cfg.seed = seed;
    std::vector<Vector> out;
    for (auto &u : speech::makeSyntheticWaves(cfg))
        out.push_back(std::move(u.samples));
    return out;
}

using Server = serve::InferenceServer;

/**
 * Open a stream pinned to @p worker. The server pins new streams
 * round-robin, so at most one try per worker. Keeping each logical
 * stream on its worker holds the load at 4 streams per worker for the
 * whole run; left to the round-robin, re-opens after cuts drift into
 * an imbalance that changes from run to run.
 */
Server::Stream
openOn(Server &server, std::size_t worker)
{
    for (;;) {
        Server::Stream s = server.openStream();
        if (s.worker() == worker)
            return s;
    }
}

struct StreamCtx
{
    enum class Phase { Idle, Stepping, Checkpointing, Restoring };

    Server::Stream stream;
    speech::FrontendState fe;
    const Vector *wave = nullptr;
    std::size_t pos = 0;          //!< next sample of wave
    std::size_t sinceCut = 0;     //!< frames since the last resume
    std::size_t utterances = 0;   //!< completed passes over wave
    Phase phase = Phase::Idle;
    std::future<Vector> step;
    std::future<std::string> ckpt;
    std::future<void> restore;
    Clock::time_point sent;
    nn::Sequence segment; //!< logits since the last cut (CTC input)
};

struct Window
{
    std::vector<double> stepMs, ckptMs, restoreMs, ckptBytes, queueMs;
    std::vector<double> rates, bgRates; //!< frames/s per round
    std::size_t frames = 0, feFrames = 0;
    std::uint64_t ops = 0, failed = 0;
    double ctcFrames = 0.0;
    nn::Sequence stream0;       //!< stream 0's first utterance, in order
    std::size_t stream0Cuts = 0;
    serve::InferenceReply bgReply; //!< one background reply to check
    std::size_t bgUtterance = 0;   //!< which utterance bgReply answers
    bool haveBg = false;
};

struct Inputs
{
    std::vector<Vector> streamWaves;
    std::vector<nn::Sequence> bg; //!< normalized background utterances
};

Window
measure(double windowS, bool record, const Inputs &in,
        const speech::AcousticFrontend &fe, Server &server,
        Tracer &tr)
{
    Window w;
    speech::CtcDecodeOptions ctc;
    ctc.beamWidth = 4;
    std::vector<StreamCtx> streams(kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) {
        streams[i].stream = openOn(server, i % server.options().workers);
        streams[i].fe = fe.newState();
        streams[i].wave = &in.streamWaves[i];
    }
    struct Bg
    {
        std::future<serve::InferenceReply> reply;
        std::size_t utterance = 0; //!< index into in.bg
        bool busy = false;
    };
    std::vector<Bg> bg(kBgInFlight);
    std::size_t nextBg = 0;

    Tracer::Scope root(tr, "bench.measure");
    const auto t0 = Clock::now();
    const double total = kWarmupS + windowS;
    // Completions after warm-up; rounds are runs of consecutive ones.
    std::vector<Clock::time_point> stepDone, bgDone;
    std::vector<double> bgDoneFrames;
    auto measured = [&](Clock::time_point t) {
        return seconds(t0, t) >= kWarmupS;
    };
    Vector frame;
    bool gotFrame = false;
    const speech::AcousticFrontend::FrameSink sink =
        [&](const Vector &f) {
            frame = f;
            gotFrame = true;
        };
    for (;;) {
        const auto now = Clock::now();
        const bool stopping = seconds(t0, now) >= total;
        bool busy = false;
        for (std::size_t si = 0; si < kStreams; ++si) {
            StreamCtx &s = streams[si];
            const bool rec0 = record && si == 0 && s.utterances == 0;
            switch (s.phase) {
              case StreamCtx::Phase::Idle:
                if (stopping)
                    break;
                busy = true;
                if (s.sinceCut >= kCutFrames) {
                    Tracer::Scope span(tr, "serve.checkpoint");
                    s.sent = Clock::now();
                    ++w.ops;
                    if (attempt(w.failed, [&] {
                            s.ckpt = s.stream.checkpoint(
                                fe.serializeState(s.fe));
                        }))
                        s.phase = StreamCtx::Phase::Checkpointing;
                    else
                        s.sinceCut = 0; // this cut is skipped
                    break;
                }
                if (s.pos >= s.wave->size()) {
                    // End of the utterance: start the next on a fresh
                    // stream (a new recording, not a resume).
                    Tracer::Scope span(tr, "serve.open");
                    s.stream = openOn(server, s.stream.worker());
                    fe.reset(s.fe);
                    s.pos = 0;
                    s.sinceCut = 0;
                    s.segment.clear();
                    ++s.utterances;
                    break;
                }
                {
                    gotFrame = false;
                    const std::size_t n = std::min<std::size_t>(
                        fe.config().frameShift, s.wave->size() - s.pos);
                    {
                        Tracer::Scope span(tr, "speech.frontend");
                        fe.push(s.fe, s.wave->data() + s.pos, n, sink);
                    }
                    s.pos += n;
                    if (gotFrame) {
                        ++w.feFrames;
                        normalizeFrame(frame);
                        Tracer::Scope span(tr, "serve.submit");
                        s.sent = Clock::now();
                        ++w.ops;
                        if (attempt(w.failed,
                                    [&] { s.step = s.stream.step(frame); }))
                            s.phase = StreamCtx::Phase::Stepping;
                    }
                }
                break;
              case StreamCtx::Phase::Stepping:
                busy = true;
                if (s.step.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    break;
                s.phase = StreamCtx::Phase::Idle;
                {
                    const auto done = Clock::now();
                    Vector logits;
                    if (!attempt(w.failed,
                                 [&] { logits = s.step.get(); }))
                        break;
                    if (measured(done)) {
                        w.stepMs.push_back(1e3 * seconds(s.sent, done));
                        stepDone.push_back(done);
                        ++w.frames;
                    }
                    if (rec0 && w.stream0.size() < kCheckedFrames)
                        w.stream0.push_back(logits);
                    s.segment.push_back(std::move(logits));
                    ++s.sinceCut;
                }
                break;
              case StreamCtx::Phase::Checkpointing:
                busy = true;
                if (s.ckpt.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    break;
                {
                    std::string blob;
                    if (!attempt(w.failed, [&] { blob = s.ckpt.get(); })) {
                        s.sinceCut = 0; // go on uncut
                        s.phase = StreamCtx::Phase::Idle;
                        break;
                    }
                    w.ckptMs.push_back(1e3 * secondsSince(s.sent));
                    w.ckptBytes.push_back(double(blob.size()));
                    {
                        Tracer::Scope span(tr, "speech.ctc");
                        speech::ctcDecodeBeam(s.segment, ctc);
                        w.ctcFrames += double(s.segment.size());
                        s.segment.clear();
                    }
                    if (rec0)
                        ++w.stream0Cuts;
                    s.sent = Clock::now();
                    {
                        Tracer::Scope span(tr, "serve.open");
                        s.stream = openOn(server, s.stream.worker());
                    }
                    std::string aux;
                    {
                        // The frontend state travels inside the blob.
                        Tracer::Scope span(tr, "runtime.restore_aux");
                        runtime::StreamState parsed;
                        runtime::restoreStream(server.model(), parsed,
                                               blob, &aux);
                    }
                    {
                        Tracer::Scope span(tr, "speech.restore");
                        s.fe = fe.newState();
                        fe.restoreState(s.fe, aux);
                    }
                    Tracer::Scope span(tr, "serve.restore");
                    ++w.ops;
                    // A failed restore leaves the fresh stream blank; the
                    // reference check of stream 0 then shows it.
                    s.sinceCut = 0;
                    s.phase = attempt(w.failed, [&] {
                        s.restore = s.stream.restore(blob);
                    }) ? StreamCtx::Phase::Restoring
                       : StreamCtx::Phase::Idle;
                }
                break;
              case StreamCtx::Phase::Restoring:
                busy = true;
                if (s.restore.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    break;
                if (attempt(w.failed, [&] { s.restore.get(); }))
                    w.restoreMs.push_back(1e3 * secondsSince(s.sent));
                s.phase = StreamCtx::Phase::Idle;
                break;
            }
        }
        for (auto &b : bg) {
            if (b.busy) {
                busy = true;
                if (b.reply.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    continue;
                b.busy = false;
                serve::InferenceReply reply;
                bool ok;
                {
                    Tracer::Scope span(tr, "serve.wait");
                    ok = attempt(w.failed, [&] { reply = b.reply.get(); });
                }
                const auto done = Clock::now();
                if (ok && measured(done)) {
                    bgDone.push_back(done);
                    bgDoneFrames.push_back(double(in.bg[b.utterance].size()));
                    w.queueMs.push_back(reply.timing.queueMicros / 1e3);
                }
                if (ok) {
                    Tracer::Scope span(tr, "speech.ctc");
                    speech::ctcDecodeBeam(reply.logits, ctc);
                    w.ctcFrames += double(reply.logits.size());
                }
                if (ok && !w.haveBg && record) {
                    // Two workers: the first reply to come back need
                    // not answer the first utterance sent.
                    w.bgReply = std::move(reply);
                    w.bgUtterance = b.utterance;
                    w.haveBg = true;
                }
            }
            if (!stopping) {
                Tracer::Scope span(tr, "serve.submit");
                b.utterance = nextBg++ % kBgUtterances;
                ++w.ops;
                b.busy = attempt(w.failed, [&] {
                    b.reply = server.submit(in.bg[b.utterance]);
                });
                busy = true;
            }
        }
        if (stopping && !busy)
            break;
        if (!busy)
            std::this_thread::yield();
    }
    for (std::size_t i = kRoundFrames; i < stepDone.size();
         i += kRoundFrames)
        w.rates.push_back(double(kRoundFrames) /
                          seconds(stepDone[i - kRoundFrames], stepDone[i]));
    for (std::size_t i = kBgRoundReplies; i < bgDone.size();
         i += kBgRoundReplies) {
        double frames = 0.0;
        for (std::size_t j = i - kBgRoundReplies + 1; j <= i; ++j)
            frames += bgDoneFrames[j];
        w.bgRates.push_back(frames /
                            seconds(bgDone[i - kBgRoundReplies], bgDone[i]));
    }
    return w;
}

} // namespace

Result
runLiveGruFft(const RunArgs &args)
{
    Result res;
    LayerValues layers;
    const nn::ModelSpec spec = gruSpec();
    nn::StackedRnn net = nn::buildModel(spec);
    Rng rng(args.seed);
    net.initXavier(rng);
    const speech::AcousticFrontend fe(frontendConfig());

    Inputs in;
    for (std::size_t i = 0; i < kStreams; ++i)
        in.streamWaves.push_back(
            makeWaves(args.seed * 7919 + 100 + i, 1, 20).front());
    for (auto &wave : makeWaves(args.seed * 7919 + 200, kBgUtterances, 1)) {
        nn::Sequence f = fe.process(wave);
        for (auto &frame : f)
            normalizeFrame(frame);
        in.bg.push_back(std::move(f));
    }

    runtime::CompileOptions copts;
    copts.backend = runtime::BackendKind::CirculantFft;
    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.computeThreads = 1;
    const std::string path = artifactPath(args, "live_gru_fft");
    SetupSamples setups;
    Serving serving = setUpServingRepeated(net, copts, sopts, path,
                                           in.bg[0], kSetups / 2, setups);

    Tracer off(false), on(true);
    const double secs = args.trace ? args.seconds / 2 : args.seconds;
    Window w = measure(secs, true, in, fe, *serving.server, off);
    Window tw;
    if (args.trace)
        tw = measure(secs, false, in, fe, *serving.server, on);
    res.attempted = w.ops + tw.ops;
    res.failed = w.failed + tw.failed;

    // Step logits of stream 0's first utterance, across every cut and
    // resume, against the naive f64 GRU of the uninterrupted stream.
    const ref::Model refModel = ref::fromModel(net);
    nn::Sequence frames = fe.process(in.streamWaves[0]);
    for (auto &f : frames)
        normalizeFrame(f);
    frames.resize(std::min(frames.size(), w.stream0.size()));
    res.check(w.stream0Cuts >= 1 && w.stream0.size() > kCutFrames,
              "live: stream 0 was never cut and resumed");
    const double d0 = ref::maxAbsDiff(w.stream0,
                                      ref::forward(refModel, frames));
    res.check(d0 <= 1e-9,
              "live: resumed stream logits differ from the f64 GRU");
    res.check(w.haveBg, "live: no background reply completed");
    if (w.haveBg) {
        const nn::Sequence &sent = in.bg[w.bgUtterance];
        res.check(ref::maxAbsDiff(w.bgReply.logits,
                                  ref::forward(refModel, sent)) <= 1e-9,
                  "live: background logits differ from the f64 GRU");
        auto session = serving.model->createSession(1);
        res.check(ref::bitEqual(w.bgReply.logits, session.logits(sent)),
                  "live: background reply differs from a solo run");
    }
    std::fprintf(stderr, "live_gru_fft: stream 0 checked over %zu frames"
                         ", %zu cuts, max |diff| %.3g\n",
                 w.stream0.size(), w.stream0Cuts, d0);

    if (args.trace) {
        // Step compute: the same model stepped directly, no server.
        auto session = serving.model->createSession(1);
        auto state = session.newStream();
        std::vector<double> soloUs;
        for (std::size_t t = 0; t < 300; ++t) {
            const auto t0 = Clock::now();
            session.step(state, in.bg[0][t % in.bg[0].size()]);
            soloUs.push_back(1e6 * secondsSince(t0));
        }
        const double stepUs = median(soloUs);
        double macs = 0.0, bytes = 0.0;
        for (const auto &m : nn::weightInventory(spec)) {
            if (m.blockSize > 1)
                macs += double(circulant::layerMultCount(
                                   m.rows, m.cols, m.blockSize)
                                   .total());
            else
                macs += double(m.rows) * double(m.cols);
            bytes += 8.0 * double(m.params());
        }
        layers["runtime.compute_us_per_frame"] = stepUs;
        layers["runtime.macs_per_frame"] = macs;
        layers["runtime.weight_bytes_per_frame"] = bytes;
        layers["runtime.gmac_per_s"] = macs / stepUs / 1e3;
        layers["runtime.checkpoint_ms"] = median(tw.ckptMs);
        layers["runtime.restore_ms"] = median(tw.restoreMs);
        layers["runtime.checkpoint_bytes"] = median(tw.ckptBytes);
        layers["serve.queue_wait_ms_p50"] = median(tw.queueMs);
        layers["serve.batch_lanes_mean"] =
            serving.server->stats().meanBatchSize();
        layers["serve.step_wait_us_p50"] =
            1e3 * median(tw.stepMs) - stepUs;
        layers["serve.step_p99_ms"] = quantile(tw.stepMs, 0.99);
        layers["serve.bg_frames_per_s"] = interquartileMean(tw.bgRates);
        const double feS = on.total("speech.frontend");
        const double ctcS = on.total("speech.ctc");
        layers["speech.frontend_busy_s"] = feS;
        layers["speech.frontend_frames_per_s"] =
            double(tw.feFrames) / feS;
        layers["speech.ctc_busy_s"] = ctcS;
        layers["speech.ctc_frames_per_s"] = tw.ctcFrames / ctcS;
        layers["trace.overhead_pct"] =
            100.0 * (interquartileMean(w.rates) /
                         interquartileMean(tw.rates) -
                     1.0);
        for (const auto &[layer, self] : on.selfSecondsByLayer())
            layers[layer + ".self_s"] = self;
        on.writeChromeTrace(args.outDir + "/trace-live_gru_fft-" +
                            std::to_string(args.seed) + ".json");
    }
    // The second half of the set-ups, a run's length after the first:
    // their median then stands for the whole run, not one moment of it.
    serving = Serving{};
    setUpServingRepeated(net, copts, sopts, path, in.bg[0], kSetups / 2,
                         setups);
    std::remove(path.c_str());
    double setupS = 0.0;
    setups.report(setupS, layers);
    // Rounds differ by design (how background batches fall across the
    // workers), so the middle half of the rounds represents the mix.
    res.endToEnd = {{"setup_s", setupS, "s"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                    {"frames_per_s", interquartileMean(w.rates),
                     "frames/s"},
                    {"step_p50_ms", median(w.stepMs), "ms"}};
    for (const auto &[name, value] : layers)
        res.perLayer.push_back({name, value, ""});
    return res;
}

} // namespace ernn::perfbench
