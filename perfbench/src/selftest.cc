/**
 * @file
 * Self-tests of the benchmark's correctness checks: each check must
 * accept libernn's real output and reject a deliberately broken copy
 * (a logit nudged past tolerance, a frame dropped from a resumed
 * stream, a non-circulant block, a perturbed log-mel bin), and an
 * operation libernn refuses must count as failed. Run with
 * `ernn_perfbench --self-test` (perfbench/run.py --self-test adds a
 * short smoke run of every workload).
 */
#include <cmath>
#include <cstdio>
#include <string>

#include "base/random.hh"
#include "circulant/block_circulant.hh"
#include "nn/model_builder.hh"
#include "reference.hh"
#include "runtime/checkpoint.hh"
#include "runtime/session.hh"
#include "workloads.hh"

namespace ernn::perfbench
{

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

nn::Sequence
randomFrames(Rng &rng, std::size_t n, std::size_t dim)
{
    nn::Sequence s(n, Vector(dim));
    for (auto &f : s)
        rng.fillNormal(f, 1.0);
    return s;
}

nn::StackedRnn
smallModel(nn::ModelType type, std::uint64_t seed)
{
    nn::ModelSpec spec;
    spec.type = type;
    spec.inputDim = 16;
    spec.numClasses = 7;
    spec.layerSizes = {32};
    spec.blockSizes = {4};
    if (type == nn::ModelType::Lstm) {
        spec.peephole = true;
        spec.projectionSize = 16;
    }
    nn::StackedRnn m = nn::buildModel(spec);
    Rng rng(seed);
    m.initXavier(rng);
    return m;
}

void
testLogitTolerance()
{
    Rng rng(3);
    nn::StackedRnn net = smallModel(nn::ModelType::Lstm, 11);
    const auto frames = randomFrames(rng, 12, 16);
    const auto want = ref::forward(ref::fromModel(net), frames);
    const auto fft = runtime::compile(net);
    auto got = fft.createSession(1).logits(frames);
    expect(ref::maxAbsDiff(got, want) <= 1e-9,
           "FFT LSTM logits within 1e-9 of the f64 reference");
    got[5][2] += 2e-9;
    expect(!(ref::maxAbsDiff(got, want) <= 1e-9),
           "a logit nudged 2e-9 is rejected at 1e-9");

    runtime::CompileOptions q;
    q.backend = runtime::BackendKind::FixedPoint;
    const auto fixed = runtime::compile(net, q);
    const double tol =
        kInt16TolSteps *
        std::ldexp(1.0, -fixed.datapath().valueFormat.fracBits);
    auto qgot = fixed.createSession(1).logits(frames);
    expect(ref::maxAbsDiff(qgot, want) <= tol,
           "int16 LSTM logits within tolerance of the f64 reference");
    qgot[0][0] += 1.01 * tol + ref::maxAbsDiff(qgot, want);
    expect(!(ref::maxAbsDiff(qgot, want) <= tol),
           "an int16 logit nudged past tolerance is rejected");
    auto same = fixed.createSession(1).logits(frames);
    expect(ref::bitEqual(same, fixed.createSession(1).logits(frames)),
           "solo int16 runs are bit-identical");
    same[3][1] = std::nextafter(same[3][1], 1e9);
    expect(!ref::bitEqual(same, fixed.createSession(1).logits(frames)),
           "a one-ulp change breaks bit-identity");
}

void
testDroppedFrame()
{
    Rng rng(5);
    nn::StackedRnn net = smallModel(nn::ModelType::Gru, 13);
    const auto frames = randomFrames(rng, 20, 16);
    const auto want = ref::forward(ref::fromModel(net), frames);
    const auto model = runtime::compile(net);
    auto run = [&](bool dropAtCut) {
        auto a = model.createSession(1);
        auto b = model.createSession(1);
        auto st = a.newStream();
        nn::Sequence out;
        for (std::size_t t = 0; t < 10; ++t)
            out.push_back(a.step(st, frames[t]));
        const std::string blob = runtime::checkpointStream(model, st);
        runtime::StreamState resumed;
        runtime::restoreStream(model, resumed, blob);
        for (std::size_t t = dropAtCut ? 11 : 10; t < frames.size(); ++t)
            out.push_back(b.step(resumed, frames[t]));
        return out;
    };
    expect(ref::maxAbsDiff(run(false), want) <= 1e-9,
           "cut-and-resumed GRU stream matches the uninterrupted f64 GRU");
    auto dropped = run(true);
    expect(!(ref::maxAbsDiff(dropped, want) <= 1e-9),
           "a frame dropped at the resume is rejected");
    // Even when the lengths are made to agree, the shift shows.
    dropped.push_back(want.back());
    expect(!(ref::maxAbsDiff(dropped, want) <= 1e-9),
           "a dropped frame is rejected even with a padded tail");
}

void
testCirculant()
{
    Rng rng(7);
    circulant::BlockCirculantMatrix bc(16, 24, 8);
    bc.initXavier(rng);
    const Matrix lib = bc.toDense();
    const ref::Dense mine =
        ref::expandCirculant(16, 24, 8, bc.raw().data());
    expect(mine.w == lib.raw(),
           "reference expansion equals BlockCirculantMatrix::toDense");
    expect(ref::isBlockCirculant(mine.w.data(), 16, 24, 8),
           "an expanded generator matrix is block-circulant");
    std::vector<double> broken = mine.w;
    broken[3 * 24 + 9] += 1e-12;
    expect(!ref::isBlockCirculant(broken.data(), 16, 24, 8),
           "a non-circulant block is rejected");
}

void
testLogMel()
{
    speech::WaveAsrConfig wc;
    wc.utterances = 1;
    const auto wave = speech::makeSyntheticWaves(wc).front().samples;
    const speech::AcousticFrontend fe(frontendConfig());
    const auto frames = fe.process(wave);
    speech::FrontendState st = fe.newState();
    nn::Sequence chunked;
    pushChunks(fe, st, wave, chunked);
    expect(ref::bitEqual(chunked, frames),
           "10 ms chunked frontend equals process() bitwise");
    const std::size_t t = frames.size() / 2;
    const nn::Sequence want{ref::logMelFrame(wave, t, fe.config())};
    expect(ref::maxAbsDiff({frames[t]}, want) <= 1e-8,
           "frontend log-mel within 1e-8 of the naive DFT");
    nn::Sequence bad{frames[t]};
    bad[0][7] += 1e-6;
    expect(!(ref::maxAbsDiff(bad, want) <= 1e-8),
           "a perturbed log-mel bin is rejected");
}

void
testFailedOperation()
{
    const nn::StackedRnn net = smallModel(nn::ModelType::Gru, 6);
    serve::InferenceServer server(runtime::compileShared(net),
                                  serve::ServerOptions{});
    Rng rng(7);
    const nn::Sequence frames = randomFrames(rng, 5, 16);
    std::uint64_t failed = 0;
    expect(attempt(failed, [&] { server.infer(frames); }) && failed == 0,
           "a served request is not counted as failed");
    server.shutdown();
    expect(!attempt(failed, [&] { server.submit(frames); }) && failed == 1,
           "a submit refused after shutdown counts as failed");
}

} // namespace

int
runSelfTests()
{
    testLogitTolerance();
    testDroppedFrame();
    testCirculant();
    testLogMel();
    testFailedOperation();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}

} // namespace ernn::perfbench
