/**
 * @file
 * Reference figures quoted in perfbench/README.md, printed by
 * `ernn_perfbench --reference` (or `perfbench/run.py --reference`).
 * Each figure is measured five times in this process; the median and
 * the range are printed. These are context for reading the workload
 * metrics, not gated metrics.
 */
#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <string>

#include "admm/finetune.hh"
#include "base/random.hh"
#include "nn/model_builder.hh"
#include "runtime/session.hh"
#include "speech/dataset.hh"
#include "workloads.hh"

namespace ernn::perfbench
{

namespace
{

constexpr int kRepeats = 5;

std::vector<nn::Sequence>
utterances(std::size_t count, std::size_t frames, std::size_t dim,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Sequence> out(count, nn::Sequence(frames, Vector(dim)));
    for (auto &u : out)
        for (auto &f : u)
            rng.fillNormal(f, 1.0);
    return out;
}

void
report(const std::string &what, std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::printf("  %-52s median %8.1f  range %8.1f - %8.1f\n",
                what.c_str(), median(v), v.front(), v.back());
}

/** session.run() frames/s over ~1 s of repeated batches. */
double
sessionRate(const runtime::CompiledModel &model,
            const std::vector<nn::Sequence> &batch)
{
    auto session = model.createSession(1);
    session.run(batch);
    std::size_t frames = 0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < 1.0) {
        session.run(batch);
        for (const auto &u : batch)
            frames += u.size();
    }
    return double(frames) / secondsSince(t0);
}

/** Closed loop of 16 ragged utterances at a time through a server. */
double
schedulerRate(const runtime::CompiledModel &model,
              serve::SchedulerMode mode)
{
    serve::ServerOptions opts;
    opts.workers = 1;
    opts.maxBatch = 16;
    opts.scheduler = mode;
    serve::InferenceServer server(model, opts);
    std::vector<nn::Sequence> pool;
    for (std::size_t i = 0; i < 64; ++i)
        pool.push_back(utterances(1, 8 + 10 * (i % 4), 40, 100 + i)[0]);
    std::deque<std::future<serve::InferenceReply>> inflight;
    std::size_t next = 0, frames = 0;
    for (; next < 16; ++next)
        inflight.push_back(server.submit(pool[next % pool.size()]));
    const auto t0 = Clock::now();
    while (secondsSince(t0) < 1.0) {
        frames += inflight.front().get().logits.size();
        inflight.pop_front();
        inflight.push_back(server.submit(pool[next++ % pool.size()]));
    }
    const double rate = double(frames) / secondsSince(t0);
    for (auto &f : inflight)
        f.get();
    return rate;
}

/** One fine-tuning epoch of a circulant LSTM-512 at block 8. */
double
trainRate(std::size_t threads)
{
    speech::AsrDataConfig dc;
    dc.trainUtterances = 32;
    dc.minFrames = dc.maxFrames = 40;
    const auto data = speech::makeSyntheticAsr(dc);
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = data.featureDim;
    spec.numClasses = data.numPhones;
    spec.layerSizes = {512};
    spec.blockSizes = {8};
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(1);
    model.initXavier(rng);
    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = 16;
    tc.threads = threads;
    const auto r = admm::finetuneCirculant(model, data.train, tc);
    return r.training.epochs.front().framesPerSec;
}

} // namespace

int
printReferenceFigures()
{
    nn::StackedRnn net = nn::buildModel(paperLstmSpec());
    Rng rng(1);
    net.initXavier(rng);
    runtime::CompileOptions fft, fixed;
    fft.backend = runtime::BackendKind::CirculantFft;
    fixed.backend = runtime::BackendKind::FixedPoint;
    const auto fftModel = runtime::compile(net, fft);
    const auto intModel = runtime::compile(net, fixed);

    std::printf("LSTM-1024/peephole/proj-512, block 8, session.run, "
                "1 compute thread (frames/s):\n");
    for (std::size_t batch : {std::size_t(1), std::size_t(16)}) {
        const auto b = utterances(batch, 50, 40, 7);
        std::vector<double> f, q;
        for (int i = 0; i < kRepeats; ++i) {
            f.push_back(sessionRate(fftModel, b));
            q.push_back(sessionRate(intModel, b));
        }
        report("CirculantFFT  batch " + std::to_string(batch), f);
        report("int16         batch " + std::to_string(batch), q);
    }

    std::printf("Same LSTM, CirculantFFT, 1 worker, maxBatch 16, closed "
                "loop of 16 ragged utterances (frames/s):\n");
    std::vector<double> hold, cont;
    for (int i = 0; i < kRepeats; ++i) {
        hold.push_back(schedulerRate(fftModel, serve::SchedulerMode::HoldOpen));
        cont.push_back(
            schedulerRate(fftModel, serve::SchedulerMode::Continuous));
    }
    report("HoldOpen", hold);
    report("Continuous", cont);

    std::printf("Circulant LSTM-512, block 8, batch 16, one fine-tuning "
                "epoch (frames/s):\n");
    for (std::size_t threads : {std::size_t(1), std::size_t(2)}) {
        std::vector<double> r;
        for (int i = 0; i < kRepeats; ++i)
            r.push_back(trainRate(threads));
        report(std::to_string(threads) + " training thread(s)", r);
    }
    return 0;
}

} // namespace ernn::perfbench
