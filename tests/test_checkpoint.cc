/**
 * @file
 * Stream checkpoint/restore tests: bit-exact round trips across every
 * backend x cell-kind combination (continue-after-restore equals the
 * uninterrupted run, in the same session, a fresh session, and a
 * freshly compiled model), cross-backend fingerprint semantics
 * (Dense <-> CirculantFFT share state, FixedPoint refuses), the named
 * fatal rejection of corrupted / truncated / trailing-garbage /
 * wrong-model blobs, the StreamState model-stamp hazard (a foreign or
 * default state can never reach the kernels), reset-vs-restore
 * semantics, aux payload round trips carrying live frontend state,
 * describeCheckpoint, and a seeded CheckpointStress suite that cuts
 * and resumes server streams mid-utterance under concurrent batch
 * traffic while a shadow session proves bit-identity.
 */

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "nn/lstm.hh"
#include "nn/model_builder.hh"
#include "runtime/checkpoint.hh"
#include "runtime/session.hh"
#include "serve/inference_server.hh"
#include "speech/frontend.hh"

using namespace ernn;
using namespace ernn::runtime;

namespace
{

nn::Sequence
randomFrames(std::size_t t, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    nn::Sequence xs(t);
    for (auto &x : xs) {
        x.resize(dim);
        rng.fillNormal(x, 1.0);
    }
    return xs;
}

/** LSTM-with-circulant-blocks and dense GRU: both cell kinds, both
 *  weight structures, h+c and h-only state. */
std::vector<nn::ModelSpec>
specs()
{
    nn::ModelSpec lstm;
    lstm.type = nn::ModelType::Lstm;
    lstm.inputDim = 8;
    lstm.numClasses = 5;
    lstm.layerSizes = {16, 16};
    lstm.blockSizes = {4, 4};

    nn::ModelSpec gru;
    gru.type = nn::ModelType::Gru;
    gru.inputDim = 8;
    gru.numClasses = 5;
    gru.layerSizes = {12};

    return {lstm, gru};
}

nn::StackedRnn
buildInit(const nn::ModelSpec &spec, std::uint64_t seed)
{
    nn::StackedRnn model = nn::buildModel(spec);
    Rng rng(seed);
    model.initXavier(rng);
    return model;
}

std::vector<BackendKind>
allBackends()
{
    return {BackendKind::Dense, BackendKind::CirculantFft,
            BackendKind::FixedPoint};
}

CompiledModel
compileAs(const nn::StackedRnn &model, BackendKind kind)
{
    CompileOptions opts;
    opts.backend = kind;
    return compile(model, opts);
}

} // namespace

// --- round-trip wall ---------------------------------------------------------

TEST(Checkpoint, RoundTripIsBitExactAcrossBackendsAndCells)
{
    std::uint64_t seed = 300;
    for (const auto &spec : specs()) {
        const nn::StackedRnn model = buildInit(spec, seed);
        const nn::Sequence xs = randomFrames(20, spec.inputDim, seed + 1);
        const std::size_t cut = 7;

        for (BackendKind kind : allBackends()) {
            const CompiledModel compiled = compileAs(model, kind);

            // Uninterrupted reference.
            InferenceSession ref = compiled.createSession();
            StreamState refState = ref.newStream();
            nn::Sequence expect;
            for (const auto &x : xs)
                expect.push_back(ref.step(refState, x));

            // Live stream: step to the cut, checkpoint, keep going.
            InferenceSession live = compiled.createSession();
            StreamState liveState = live.newStream();
            for (std::size_t t = 0; t < cut; ++t)
                live.step(liveState, xs[t]);
            const std::string blob =
                checkpointStream(compiled, liveState);

            // Resume in a *fresh session* (the handoff case) and in
            // the same session; both must finish bit-identically.
            InferenceSession resumed = compiled.createSession();
            StreamState resumedState = resumed.newStream();
            restoreStream(compiled, resumedState, blob);
            EXPECT_EQ(resumedState.framesSeen(), cut);
            for (std::size_t t = cut; t < xs.size(); ++t) {
                EXPECT_EQ(resumed.step(resumedState, xs[t]), expect[t])
                    << compiled.describe() << " t=" << t;
            }

            restoreStream(compiled, liveState, blob);
            for (std::size_t t = cut; t < xs.size(); ++t)
                EXPECT_EQ(live.step(liveState, xs[t]), expect[t])
                    << compiled.describe() << " (same session) t=" << t;
        }
        seed += 10;
    }
}

TEST(Checkpoint, SurvivesRecompilationOfTheSameModel)
{
    // A blob outlives the CompiledModel that wrote it: restore into a
    // second, independent compilation (fresh process, conceptually).
    const nn::StackedRnn model = buildInit(specs()[0], 330);
    const nn::Sequence xs = randomFrames(12, 8, 331);

    const CompiledModel first = compileAs(model, BackendKind::Auto);
    InferenceSession s1 = first.createSession();
    StreamState st1 = s1.newStream();
    for (std::size_t t = 0; t < 5; ++t)
        s1.step(st1, xs[t]);
    const std::string blob = checkpointStream(first, st1);
    nn::Sequence expect;
    for (std::size_t t = 5; t < xs.size(); ++t)
        expect.push_back(s1.step(st1, xs[t]));

    const CompiledModel second = compileAs(model, BackendKind::Auto);
    EXPECT_EQ(modelFingerprint(first), modelFingerprint(second));
    InferenceSession s2 = second.createSession();
    StreamState st2 = s2.newStream();
    restoreStream(second, st2, blob);
    for (std::size_t t = 5; t < xs.size(); ++t)
        EXPECT_EQ(s2.step(st2, xs[t]), expect[t - 5]);
}

TEST(Checkpoint, DenseAndCirculantFftInterchangeStateFixedPointRefuses)
{
    const nn::StackedRnn model = buildInit(specs()[0], 340);
    const nn::Sequence xs = randomFrames(14, 8, 341);

    const CompiledModel dense = compileAs(model, BackendKind::Dense);
    const CompiledModel fft =
        compileAs(model, BackendKind::CirculantFft);
    const CompiledModel fxp =
        compileAs(model, BackendKind::FixedPoint);

    // Dense and CirculantFFT run the same f64 datapath over the same
    // geometry: one fingerprint, freely exchangeable streams.
    EXPECT_EQ(modelFingerprint(dense), modelFingerprint(fft));
    // The fixed-point value grid is a different continuation
    // semantics: different fingerprint.
    EXPECT_NE(modelFingerprint(dense), modelFingerprint(fxp));

    InferenceSession ds = dense.createSession();
    StreamState dstate = ds.newStream();
    for (std::size_t t = 0; t < 6; ++t)
        ds.step(dstate, xs[t]);
    const std::string blob = checkpointStream(dense, dstate);

    // Cross-restore Dense -> CirculantFFT and continue: the two
    // backends share geometry and f64 value semantics and agree to
    // FFT roundoff (test_runtime), so the continuation tracks the
    // FFT backend's own uninterrupted stream to the same accuracy.
    InferenceSession fs = fft.createSession();
    StreamState fref = fs.newStream();
    nn::Sequence expect;
    for (const auto &x : xs)
        expect.push_back(fs.step(fref, x));
    StreamState fstate = fs.newStream();
    restoreStream(fft, fstate, blob);
    for (std::size_t t = 6; t < xs.size(); ++t) {
        const Vector &got = fs.step(fstate, xs[t]);
        ASSERT_EQ(got.size(), expect[t].size());
        for (std::size_t k = 0; k < got.size(); ++k)
            EXPECT_NEAR(got[k], expect[t][k], 1e-9)
                << "t=" << t << " k=" << k;
    }

    InferenceSession xs_session = fxp.createSession();
    StreamState xstate = xs_session.newStream();
    EXPECT_DEATH(restoreStream(fxp, xstate, blob), "different model");
}

// --- reset vs restore ----------------------------------------------------------

TEST(Checkpoint, ResetAfterRestoreEqualsFreshStream)
{
    const nn::StackedRnn model = buildInit(specs()[1], 350);
    const nn::Sequence xs = randomFrames(10, 8, 351);
    const CompiledModel compiled =
        compileAs(model, BackendKind::FixedPoint);

    InferenceSession session = compiled.createSession();
    StreamState state = session.newStream();
    for (std::size_t t = 0; t < 4; ++t)
        session.step(state, xs[t]);
    const std::string blob = checkpointStream(compiled, state);

    StreamState restored = session.newStream();
    restoreStream(compiled, restored, blob);
    restored.reset();
    EXPECT_EQ(restored.framesSeen(), 0u);

    StreamState fresh = session.newStream();
    for (const auto &x : xs)
        EXPECT_EQ(session.step(restored, x), session.step(fresh, x));
}

TEST(Checkpoint, RestoreIntoInUseStreamReplacesItCompletely)
{
    const nn::StackedRnn model = buildInit(specs()[0], 360);
    const nn::Sequence xs = randomFrames(12, 8, 361);
    const CompiledModel compiled = compileAs(model, BackendKind::Auto);

    InferenceSession session = compiled.createSession();
    StreamState reference = session.newStream();
    nn::Sequence expect;
    for (const auto &x : xs)
        expect.push_back(session.step(reference, x));

    StreamState state = session.newStream();
    for (std::size_t t = 0; t < 5; ++t)
        session.step(state, xs[t]);
    const std::string blob = checkpointStream(compiled, state);

    // Drive the same state object down an unrelated utterance, then
    // restore: the detour must leave no trace.
    const nn::Sequence detour = randomFrames(9, 8, 362);
    for (const auto &x : detour)
        session.step(state, x);
    restoreStream(compiled, state, blob);
    EXPECT_EQ(state.framesSeen(), 5u);
    for (std::size_t t = 5; t < xs.size(); ++t)
        EXPECT_EQ(session.step(state, xs[t]), expect[t]);
}

// --- the StreamState model-stamp hazard ---------------------------------------

TEST(CheckpointDeath, ForeignAndDefaultStreamStatesCannotStep)
{
    // The latent hazard this layer closes: a state sized for another
    // model must never reach the kernels (whose inner loops trust the
    // state dimensions — an OOB read at best, silent fixed-point
    // divergence at worst). step() refuses on the fingerprint stamp.
    const nn::StackedRnn a = buildInit(specs()[0], 370); // 2x16 LSTM
    const nn::StackedRnn b = buildInit(specs()[1], 371); // 1x12 GRU
    const CompiledModel ca = compileAs(a, BackendKind::Auto);
    const CompiledModel cb = compileAs(b, BackendKind::Auto);

    InferenceSession sa = ca.createSession();
    InferenceSession sb = cb.createSession();
    const Vector frame = randomFrames(1, 8, 372)[0];

    StreamState foreign = sb.newStream();
    EXPECT_DEATH(sa.step(foreign, frame), "different model");

    StreamState blank; // never stamped by any session
    EXPECT_DEATH(sa.step(blank, frame), "different model");
    EXPECT_DEATH(sb.step(blank, frame), "different model");

    // Same-spec different-backend states: Dense/CirculantFFT
    // interchange, FixedPoint refuses (different value semantics).
    const CompiledModel cfft = compileAs(a, BackendKind::CirculantFft);
    const CompiledModel cfxp = compileAs(a, BackendKind::FixedPoint);
    InferenceSession sfft = cfft.createSession();
    InferenceSession sfxp = cfxp.createSession();
    StreamState fftState = sfft.newStream();
    sa.step(fftState, frame); // allowed: identical datapath
    EXPECT_DEATH(sfxp.step(fftState, frame), "different model");

    // And checkpointing a foreign state is refused at write time.
    EXPECT_DEATH(checkpointStream(ca, sb.newStream()),
                 "different model");
}

// --- malformed blob rejection ---------------------------------------------------

TEST(CheckpointDeath, MalformedBlobsDieWithNamedDiagnostics)
{
    const nn::StackedRnn model = buildInit(specs()[0], 380);
    const CompiledModel compiled = compileAs(model, BackendKind::Auto);
    InferenceSession session = compiled.createSession();
    StreamState state = session.newStream();
    const nn::Sequence xs = randomFrames(6, 8, 381);
    for (const auto &x : xs)
        session.step(state, x);
    const std::string good = checkpointStream(compiled, state);
    StreamState target = session.newStream();

    // Corrupted interior byte: checksum catches it.
    std::string corrupt = good;
    corrupt[good.size() / 2] ^= 0x20;
    EXPECT_DEATH(restoreStream(compiled, target, corrupt), "checksum");

    // Truncation at any boundary: declared-size check catches it.
    EXPECT_DEATH(restoreStream(compiled, target,
                               good.substr(0, good.size() - 1)),
                 "truncated");
    EXPECT_DEATH(restoreStream(compiled, target,
                               good.substr(0, 10)),
                 "truncated");
    EXPECT_DEATH(restoreStream(compiled, target, ""), "truncated");

    // Trailing garbage past the declared size.
    EXPECT_DEATH(restoreStream(compiled, target, good + "JUNK"),
                 "trailing");

    // Wrong magic / unsupported version.
    std::string badMagic = good;
    badMagic[0] = 'X';
    EXPECT_DEATH(restoreStream(compiled, target, badMagic), "magic");
    std::string badVersion = good;
    badVersion[8] = 99; // version field follows the 8-byte magic
    EXPECT_DEATH(restoreStream(compiled, target, badVersion),
                 "version");

    // A checkpoint of a structurally different model (wider layers):
    // rejected by fingerprint before any state is touched.
    nn::ModelSpec wide = specs()[0];
    wide.layerSizes = {32, 32};
    const nn::StackedRnn other = buildInit(wide, 382);
    const CompiledModel cother = compileAs(other, BackendKind::Auto);
    InferenceSession so = cother.createSession();
    StreamState ostate = so.newStream();
    so.step(ostate, randomFrames(1, 8, 383)[0]);
    const std::string oblob = checkpointStream(cother, ostate);
    EXPECT_DEATH(restoreStream(compiled, target, oblob),
                 "different model");

    // describeCheckpoint applies the same framing contract.
    EXPECT_DEATH(describeCheckpoint(corrupt), "checksum");
    EXPECT_DEATH(describeCheckpoint(good + "x"), "trailing");
}

// --- golden wire -----------------------------------------------------------------

namespace
{

/** FNV-1a 64 over @p bytes (the checkpoint checksum's hash, written
 *  out here so the golden values do not lean on the codec). */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

TEST(Checkpoint, GoldenFingerprintsAndBlobsArePinned)
{
    // The stream wire is a compatibility contract: a blob written by
    // an older build must restore on this one. Pin modelFingerprint
    // and the bytes of a five-frame checkpoint for a seeded LSTM
    // (peephole + projection, circulant blocks) and a seeded GRU on
    // the float and the integer datapath. The values were recorded
    // from the build whose streams kept one state vector per layer.
    nn::ModelSpec lstm;
    lstm.type = nn::ModelType::Lstm;
    lstm.inputDim = 8;
    lstm.numClasses = 5;
    lstm.layerSizes = {16, 16};
    lstm.blockSizes = {4, 4};
    lstm.peephole = true;
    lstm.projectionSize = 8;

    nn::ModelSpec gru;
    gru.type = nn::ModelType::Gru;
    gru.inputDim = 8;
    gru.numClasses = 5;
    gru.layerSizes = {12, 12};
    gru.blockSizes = {4, 1};

    struct Golden
    {
        const char *name;
        const nn::ModelSpec *spec;
        BackendKind kind;
        std::uint64_t fingerprint;
        std::uint64_t blob;
    };
    const Golden golden[] = {
        {"lstm/dense", &lstm, BackendKind::Dense,
         0xa71dea1d30dc4f21ull, 0x191664aa543b84dcull},
        {"lstm/fixed", &lstm, BackendKind::FixedPoint,
         0x9b547d8970aef13eull, 0x85621bafd1382a2cull},
        {"gru/dense", &gru, BackendKind::Dense,
         0x96a433bdeb469ad7ull, 0x6902e17fa0c251e1ull},
        {"gru/fixed", &gru, BackendKind::FixedPoint,
         0x72cb848249858be4ull, 0xdec71ece2a57a11cull},
    };

    const nn::Sequence xs = randomFrames(5, 8, 611);
    for (const Golden &g : golden) {
        const nn::StackedRnn model = buildInit(*g.spec, 610);
        const CompiledModel compiled = compileAs(model, g.kind);
        InferenceSession session = compiled.createSession();
        StreamState state = session.newStream();
        for (const auto &x : xs)
            session.step(state, x);
        const std::string blob =
            checkpointStream(compiled, state, "golden");
        EXPECT_EQ(modelFingerprint(compiled), g.fingerprint)
            << g.name << std::hex << " fingerprint 0x"
            << modelFingerprint(compiled);
        EXPECT_EQ(fnv1a(blob), g.blob)
            << g.name << std::hex << " blob 0x" << fnv1a(blob);
    }
}

// --- header introspection and aux payloads --------------------------------------

TEST(Checkpoint, DescribeReportsTheHeader)
{
    const nn::StackedRnn model = buildInit(specs()[0], 390);
    const CompiledModel compiled = compileAs(model, BackendKind::Auto);
    InferenceSession session = compiled.createSession();
    StreamState state = session.newStream();
    const nn::Sequence xs = randomFrames(9, 8, 391);
    for (const auto &x : xs)
        session.step(state, x);

    const std::string blob =
        checkpointStream(compiled, state, "aux-bytes");
    const CheckpointInfo info = describeCheckpoint(blob);
    EXPECT_EQ(info.version, kCheckpointFormatVersion);
    EXPECT_EQ(info.fingerprint, modelFingerprint(compiled));
    EXPECT_EQ(info.frames, 9u);
    EXPECT_EQ(info.layers, 2u);
    // Two LSTM layers of 16 units: h and c per layer.
    EXPECT_EQ(info.stateValues, 4u * 16u);
    EXPECT_EQ(info.auxBytes, 9u);
    EXPECT_EQ(info.totalBytes, blob.size());
}

TEST(Checkpoint, AuxPayloadCarriesLiveFrontendState)
{
    // The full long-form speech cut: waveform in, frontend overlap
    // state rides the checkpoint's aux section, model state rides the
    // body; restore both and the remaining samples produce logits
    // bit-identical to the uninterrupted pipeline.
    speech::FrontendConfig fcfg;
    fcfg.frameLength = 64;
    fcfg.frameShift = 32;
    fcfg.fftSize = 64;
    fcfg.melBands = 8;
    const speech::AcousticFrontend fe(fcfg);

    nn::ModelSpec spec;
    spec.type = nn::ModelType::Gru;
    spec.inputDim = 8;
    spec.numClasses = 5;
    spec.layerSizes = {12};
    const nn::StackedRnn model = buildInit(spec, 400);
    const CompiledModel compiled =
        compileAs(model, BackendKind::FixedPoint);

    Rng rng(401);
    Vector samples(13 * fcfg.frameShift + 17);
    rng.fillNormal(samples, 0.3);

    // Uninterrupted reference pipeline.
    InferenceSession ref = compiled.createSession();
    StreamState refState = ref.newStream();
    speech::FrontendState refFe = fe.newState();
    nn::Sequence expect;
    fe.push(refFe, samples.data(), samples.size(),
            [&](const Vector &frame) {
                expect.push_back(ref.step(refState, frame));
            });
    ASSERT_GT(expect.size(), 4u);

    // Live pipeline, cut mid-window (not on a hop boundary).
    const std::size_t cut = 5 * fcfg.frameShift + 11;
    InferenceSession live = compiled.createSession();
    StreamState liveState = live.newStream();
    speech::FrontendState liveFe = fe.newState();
    nn::Sequence got;
    fe.push(liveFe, samples.data(), cut, [&](const Vector &frame) {
        got.push_back(live.step(liveState, frame));
    });
    const std::string blob = checkpointStream(
        compiled, liveState, fe.serializeState(liveFe));

    // Resume from the blob alone: fresh session, fresh frontend.
    InferenceSession resumed = compiled.createSession();
    StreamState resumedState = resumed.newStream();
    std::string aux;
    restoreStream(compiled, resumedState, blob, &aux);
    speech::FrontendState resumedFe = fe.newState();
    fe.restoreState(resumedFe, aux);
    EXPECT_EQ(resumedFe.samplesSeen(), cut);
    fe.push(resumedFe, samples.data() + cut, samples.size() - cut,
            [&](const Vector &frame) {
                got.push_back(resumed.step(resumedState, frame));
            });

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t t = 0; t < expect.size(); ++t)
        EXPECT_EQ(got[t], expect[t]) << "t=" << t;
}

// --- server-integrated stress (split out as a `stress`-labeled ctest entry) ----

TEST(CheckpointStress, MidStreamCutsUnderConcurrentBatchTraffic)
{
    // Long-form serving lifecycle under load: live server streams are
    // cut (checkpointSync), abandoned, and resumed on brand-new
    // streams (other workers) every few steps, while batch traffic
    // keeps the same workers busy. A shadow session proves every
    // served logit vector bit-identical to the uninterrupted run.
    const nn::StackedRnn model = buildInit(specs()[0], 410);
    const CompiledModel compiled =
        compileAs(model, BackendKind::FixedPoint);

    serve::ServerOptions sopts;
    sopts.workers = 3;
    sopts.maxBatch = 4;
    serve::InferenceServer server(compiled, sopts);

    constexpr std::size_t kStreams = 4;
    constexpr std::size_t kFrames = 60;
    constexpr std::size_t kCutEvery = 9;

    Rng rng(411);
    std::vector<nn::Sequence> frames(kStreams);
    for (auto &seq : frames)
        seq = randomFrames(kFrames, 8, rng.index(1u << 20));

    // Background batch traffic for the whole run.
    std::vector<std::future<serve::InferenceReply>> batch;
    for (std::size_t u = 0; u < 24; ++u)
        batch.push_back(
            server.submit(randomFrames(15, 8, 500 + u)));

    InferenceSession shadow = compiled.createSession();
    std::vector<StreamState> shadowStates;
    std::vector<serve::InferenceServer::Stream> live;
    for (std::size_t s = 0; s < kStreams; ++s) {
        shadowStates.push_back(shadow.newStream());
        live.push_back(server.openStream());
    }

    std::size_t cuts = 0;
    for (std::size_t t = 0; t < kFrames; ++t) {
        for (std::size_t s = 0; s < kStreams; ++s) {
            if (t > 0 && (t + s) % kCutEvery == 0) {
                std::string blob = live[s].checkpointSync();
                const CheckpointInfo info = describeCheckpoint(blob);
                EXPECT_EQ(info.frames, t);
                serve::InferenceServer::Stream fresh =
                    server.openStream();
                fresh.restoreSync(std::move(blob));
                live[s] = std::move(fresh);
                ++cuts;
            }
            const Vector got = live[s].stepSync(frames[s][t]);
            const Vector &want = shadow.step(shadowStates[s],
                                             frames[s][t]);
            ASSERT_EQ(got, want) << "stream " << s << " t=" << t
                                 << " after " << cuts << " cuts";
        }
    }
    EXPECT_GT(cuts, kStreams * 4);

    // The concurrent batch work all completed, and correctly.
    InferenceSession check = compiled.createSession();
    for (std::size_t u = 0; u < batch.size(); ++u) {
        const serve::InferenceReply reply = batch[u].get();
        const nn::Sequence expect =
            check.logits(randomFrames(15, 8, 500 + u));
        ASSERT_EQ(reply.logits.size(), expect.size());
        for (std::size_t t = 0; t < expect.size(); ++t)
            EXPECT_EQ(reply.logits[t], expect[t]);
    }
}

TEST(CheckpointStress, RestoredBlobsSurviveConcurrentCheckpointers)
{
    // Many threads checkpoint/restore disjoint streams of one shared
    // model concurrently (checkpointStream reads immutable model
    // tables only): every thread's continuation stays bit-exact.
    const nn::StackedRnn model = buildInit(specs()[1], 420);
    const CompiledModel compiled = compileAs(model, BackendKind::Auto);

    constexpr std::size_t kThreads = 6;
    constexpr std::size_t kFrames = 40;
    std::vector<std::future<bool>> oks;
    for (std::size_t i = 0; i < kThreads; ++i) {
        oks.push_back(std::async(std::launch::async, [&, i] {
            const nn::Sequence xs =
                randomFrames(kFrames, 8, 4000 + i);
            InferenceSession session = compiled.createSession();
            StreamState state = session.newStream();
            nn::Sequence expect;
            {
                InferenceSession ref = compiled.createSession();
                StreamState rs = ref.newStream();
                for (const auto &x : xs)
                    expect.push_back(ref.step(rs, x));
            }
            for (std::size_t t = 0; t < kFrames; ++t) {
                if (t % 5 == 4) {
                    const std::string blob =
                        checkpointStream(compiled, state);
                    StreamState next = session.newStream();
                    restoreStream(compiled, next, blob);
                    state = std::move(next);
                }
                if (session.step(state, xs[t]) != expect[t])
                    return false;
            }
            return true;
        }));
    }
    for (auto &ok : oks)
        EXPECT_TRUE(ok.get());
}
