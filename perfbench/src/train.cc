/**
 * @file
 * train_trial: one Phase I design trial, repeated for the run. ADMM
 * (nn::Trainer's batched GEMM path, 2 threads) trains a dense LSTM
 * toward block size 8 for a fixed number of iterations; hardProject()
 * and transferWeights() move the weights into the circulant model;
 * finetuneCirculant() retrains it on the batched FFT path; compile()
 * and evaluatePer() score it on held-out data. Every trial starts from
 * the same seeded initial weights, so every trial does the same work.
 */
#include <cstdio>

#include "admm/admm_trainer.hh"
#include "admm/finetune.hh"
#include "admm/transfer.hh"
#include "base/random.hh"
#include "nn/lstm.hh"
#include "nn/model_builder.hh"
#include "reference.hh"
#include "runtime/session.hh"
#include "speech/dataset.hh"
#include "speech/per.hh"
#include "workloads.hh"

namespace ernn::perfbench
{

namespace
{

constexpr std::size_t kBlock = 8;
constexpr std::size_t kSetupsPerTrial = 4;
constexpr std::size_t kAdmmIterations = 2;
constexpr std::size_t kEpochsPerIteration = 2;
constexpr std::size_t kFinetuneEpochs = 2;
constexpr double kPerBound = 40.0; //!< held-out PER limit, percent

speech::AsrDataConfig
dataConfig(std::uint64_t seed)
{
    speech::AsrDataConfig cfg;
    cfg.seed = seed;
    cfg.trainUtterances = 32;
    cfg.testUtterances = 16;
    // Fixed length: every seed trains on the same number of frames in
    // the same batch shapes.
    cfg.minFrames = cfg.maxFrames = 40;
    return cfg;
}

nn::ModelSpec
trialSpec(const speech::AsrDataset &data, bool circulant)
{
    nn::ModelSpec spec;
    spec.type = nn::ModelType::Lstm;
    spec.inputDim = data.featureDim;
    spec.numClasses = data.numPhones;
    spec.layerSizes = {64};
    if (circulant)
        spec.blockSizes = {kBlock};
    return spec;
}

nn::TrainConfig
trainConfig(std::size_t epochs)
{
    nn::TrainConfig tc;
    tc.epochs = epochs;
    tc.batchSize = 8;
    tc.threads = 2;
    return tc;
}

/** Timestamps every optimizer step of @p model (the trainers fire a
 *  parameter's update hook once per step, after writing it). */
void
hookSteps(nn::StackedRnn &model, std::vector<Clock::time_point> &stamps)
{
    nn::ParamView &view = model.params().views().front();
    auto prev = view.onUpdate;
    view.onUpdate = [prev, &stamps] {
        if (prev)
            prev();
        stamps.push_back(Clock::now());
    };
}

/** Step latencies: gaps between consecutive steps of one phase. */
void
appendGaps(const std::vector<Clock::time_point> &stamps,
           std::vector<double> &ms)
{
    for (std::size_t i = 1; i < stamps.size(); ++i)
        ms.push_back(1e3 * seconds(stamps[i - 1], stamps[i]));
}

struct Trial
{
    double trainS = 0.0; //!< ADMM + fine-tuning wall time
    double admmS = 0.0, projectS = 0.0, finetuneS = 0.0;
    double compileS = 0.0, perS = 0.0, finetuneFps = 0.0;
    double firstLoss = 0.0, lossBefore = 0.0, lossAfter = 0.0;
    double per = 0.0;
    bool circulant = true;
    std::vector<double> stepMs; //!< optimizer step times
    double rate = 0.0;          //!< frames x epochs per second
    std::unique_ptr<nn::StackedRnn> compressed;
};

Trial
runTrial(const speech::AsrDataset &data, nn::StackedRnn &init, Tracer &tr)
{
    Tracer::Scope root(tr, "bench.trial");
    Trial t;
    const nn::ModelSpec denseSpec = trialSpec(data, false);
    const nn::ModelSpec circSpec = trialSpec(data, true);
    nn::StackedRnn dense = nn::buildModel(denseSpec);
    dense.copyParamsFrom(init);
    std::vector<Clock::time_point> admmSteps, ftSteps;
    hookSteps(dense, admmSteps);

    admm::AdmmConfig acfg;
    acfg.iterations = kAdmmIterations;
    acfg.epochsPerIteration = kEpochsPerIteration;
    acfg.convergenceTol = 0.0; // fixed work: never stop early
    acfg.train = trainConfig(acfg.epochsPerIteration);
    admm::AdmmTrainer trainer(dense, acfg);
    admm::constrainFromSpec(trainer, dense, circSpec);
    auto t0 = Clock::now();
    admm::AdmmResult ar;
    {
        Tracer::Scope s(tr, "admm.run");
        ar = trainer.run(data.train);
    }
    t.admmS = secondsSince(t0);
    t.firstLoss = ar.log.front().trainLoss;

    t0 = Clock::now();
    t.compressed = std::make_unique<nn::StackedRnn>(nn::buildModel(circSpec));
    {
        Tracer::Scope s(tr, "admm.project_transfer");
        trainer.hardProject();
        admm::transferWeights(dense, *t.compressed);
    }
    t.projectS = secondsSince(t0);
    // The projected dense weights must be exactly block-circulant.
    const auto &lstm = dynamic_cast<const nn::LstmLayer &>(dense.layer(0));
    for (const nn::LinearOp *op :
         {&lstm.wix(), &lstm.wfx(), &lstm.wcx(), &lstm.wox(), &lstm.wir(),
          &lstm.wfr(), &lstm.wcr(), &lstm.wor()}) {
        const Matrix &w = *op->denseWeight();
        t.circulant = t.circulant &&
                      ref::isBlockCirculant(w.data(), w.rows(), w.cols(),
                                            kBlock);
    }

    hookSteps(*t.compressed, ftSteps);
    t0 = Clock::now();
    admm::FinetuneResult fr;
    {
        Tracer::Scope s(tr, "nn.finetune");
        fr = admm::finetuneCirculant(*t.compressed, data.train,
                                     trainConfig(kFinetuneEpochs));
    }
    t.finetuneS = secondsSince(t0);
    t.trainS = t.admmS + t.finetuneS;
    t.lossBefore = fr.lossBefore;
    t.lossAfter = fr.lossAfter;
    for (const auto &e : fr.training.epochs)
        t.finetuneFps += e.framesPerSec / double(fr.training.epochs.size());

    t0 = Clock::now();
    std::shared_ptr<const runtime::CompiledModel> compiled;
    {
        Tracer::Scope s(tr, "runtime.compile");
        compiled = runtime::compileShared(*t.compressed);
    }
    t.compileS = secondsSince(t0);
    t0 = Clock::now();
    {
        Tracer::Scope s(tr, "speech.per_eval");
        t.per = speech::evaluatePer(*compiled, data.test);
    }
    t.perS = secondsSince(t0);
    appendGaps(admmSteps, t.stepMs);
    appendGaps(ftSteps, t.stepMs);
    return t;
}

std::size_t
frameCount(const nn::SequenceDataset &data)
{
    std::size_t n = 0;
    for (const auto &ex : data)
        n += ex.frames.size();
    return n;
}

} // namespace

Result
runTrainTrial(const RunArgs &args)
{
    Result res;
    LayerValues layers;

    // Set-up: generate the dataset, build and initialise the model.
    // It is repeated before every trial, so its median covers the whole
    // run, not one moment of it; every repeat builds the same inputs.
    std::vector<double> setups;
    speech::AsrDataset data;
    nn::StackedRnn init;
    auto setUp = [&] {
        for (std::size_t i = 0; i < kSetupsPerTrial; ++i) {
            const auto t0 = Clock::now();
            data = speech::makeSyntheticAsr(dataConfig(args.seed));
            init = nn::buildModel(trialSpec(data, false));
            Rng rng(args.seed);
            init.initXavier(rng);
            setups.push_back(secondsSince(t0));
        }
    };
    setUp();
    const double epochs =
        double(kAdmmIterations * kEpochsPerIteration + kFinetuneEpochs);
    const double trialFrames = epochs * double(frameCount(data.train));

    Tracer off(false), on(true);
    auto measure = [&](double windowS, Tracer &tr,
                       std::vector<Trial> &trials) {
        const auto t0 = Clock::now();
        for (std::size_t n = 0; n < 2 || secondsSince(t0) < windowS; ++n) {
            if (n > 0)
                setUp();
            ++res.attempted;
            Trial t;
            if (!attempt(res.failed, [&] { t = runTrial(data, init, tr); }))
                continue;
            t.rate = trialFrames / t.trainS;
            // Only the last trial's models are kept for the checks.
            if (!trials.empty())
                trials.back().compressed.reset();
            trials.push_back(std::move(t));
        }
    };
    // Every trial does identical work: both metrics come from the
    // fastest quarter of trials (see README, "Per-run estimators").
    auto fastest = [](const std::vector<Trial> &trials, double &rate,
                      std::vector<double> &stepMs) {
        std::vector<double> rates;
        for (const auto &t : trials)
            rates.push_back(t.rate);
        const auto fast = fastestQuarter(rates);
        rate = meanOf(rates, fast);
        for (std::size_t i : fast)
            stepMs.insert(stepMs.end(), trials[i].stepMs.begin(),
                          trials[i].stepMs.end());
    };
    std::vector<Trial> trials, tTrials;
    const double secs = args.trace ? args.seconds / 2 : args.seconds;
    measure(secs, off, trials);
    if (args.trace)
        measure(secs, on, tTrials);
    double rate = 0.0, tRate = 0.0;
    std::vector<double> stepMs, tStepMs;
    fastest(trials, rate, stepMs);

    res.check(!trials.empty(), "train: no trial completed");
    if (trials.empty())
        return res;
    const Trial &last = trials.back();
    res.check(last.firstLoss > last.lossAfter &&
                  last.lossAfter < last.lossBefore,
              "train: loss did not fall");
    res.check(last.per < kPerBound,
              "train: held-out PER " + std::to_string(last.per) +
                  "% not below " + std::to_string(kPerBound) + "%");
    res.check(last.circulant,
              "train: projected weights not exactly block-circulant");
    const runtime::CompiledModel compiled =
        runtime::compile(*last.compressed);
    auto session = compiled.createSession(1);
    const ref::Model refModel = ref::fromModel(*last.compressed);
    double worst = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        const auto &frames = data.test[i].frames;
        worst = std::max(worst,
                         ref::maxAbsDiff(session.logits(frames),
                                         ref::forward(refModel, frames)));
    }
    res.check(worst <= 1e-9,
              "train: compiled logits differ from the f64 forward");
    std::fprintf(stderr, "train_trial: %zu trials, PER %.2f%%, loss "
                         "%.4f -> %.4f, max |diff| %.3g\n",
                 trials.size(), last.per, last.firstLoss, last.lossAfter,
                 worst);

    res.endToEnd = {{"setup_s", median(setups), "s"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                    {"frames_per_s", rate, "frames/s"},
                    {"step_p50_ms", median(stepMs), "ms"}};
    if (args.trace) {
        auto med = [&](double Trial::*field) {
            std::vector<double> v;
            for (const auto &t : tTrials)
                v.push_back(t.*field);
            return median(v);
        };
        layers["admm.run_s"] = med(&Trial::admmS);
        layers["admm.project_transfer_s"] = med(&Trial::projectS);
        layers["nn.finetune_s"] = med(&Trial::finetuneS);
        layers["nn.finetune_frames_per_s"] = med(&Trial::finetuneFps);
        layers["runtime.compile_s"] = med(&Trial::compileS);
        layers["speech.per_eval_s"] = med(&Trial::perS);
        fastest(tTrials, tRate, tStepMs);
        layers["trace.overhead_pct"] = 100.0 * (rate / tRate - 1.0);
        for (const auto &[layer, self] : on.selfSecondsByLayer())
            layers[layer + ".self_s"] = self;
        on.writeChromeTrace(args.outDir + "/trace-train_trial-" +
                            std::to_string(args.seed) + ".json");
    }
    for (const auto &[name, value] : layers)
        res.perLayer.push_back({name, value, ""});
    return res;
}

} // namespace ernn::perfbench
