/**
 * @file
 * Block-circulant matrix tests: structure, the Euclidean projection
 * of Eqn. 6 (including the paper's Fig. 5 worked example and
 * property-based optimality checks), FFT-vs-naive matvec equivalence,
 * adjoint identities, and FFT-call decoupling counts (Fig. 7).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "base/random.hh"
#include "circulant/block_circulant.hh"
#include "tensor/fft.hh"

using namespace ernn;
using namespace ernn::circulant;

namespace
{

Matrix
randomMatrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    for (auto &v : m.raw())
        v = rng.normal();
    return m;
}

Vector
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Vector v(n);
    rng.fillNormal(v, 1.0);
    return v;
}

} // namespace

TEST(BlockCirculant, ShapeAndParamCount)
{
    BlockCirculantMatrix w(8, 12, 4);
    EXPECT_EQ(w.blockRows(), 2u);
    EXPECT_EQ(w.blockCols(), 3u);
    EXPECT_EQ(w.paramCount(), 2u * 3u * 4u);
    EXPECT_DOUBLE_EQ(w.compressionRatio(), 4.0);
}

TEST(BlockCirculant, ToDenseHasCirculantStructure)
{
    Rng rng(1);
    BlockCirculantMatrix w(8, 8, 4);
    w.initXavier(rng);
    const Matrix d = w.toDense();
    // Within each 4x4 block, entry (r, c) depends only on
    // (c - r) mod 4.
    for (std::size_t bi = 0; bi < 2; ++bi) {
        for (std::size_t bj = 0; bj < 2; ++bj) {
            for (std::size_t r = 1; r < 4; ++r) {
                for (std::size_t c = 0; c < 4; ++c) {
                    EXPECT_DOUBLE_EQ(
                        d.at(bi * 4 + r, bj * 4 + c),
                        d.at(bi * 4, bj * 4 + (c + 4 - r) % 4));
                }
            }
        }
    }
}

TEST(BlockCirculant, FirstRowIsTheGenerator)
{
    // Fig. 4 of the paper: second row is the rotation of the first.
    BlockCirculantMatrix w(4, 4, 4);
    Real *g = w.generator(0, 0);
    g[0] = 1.14; g[1] = -0.69; g[2] = 0.83; g[3] = -2.26;
    w.invalidateSpectra();
    const Matrix d = w.toDense();
    EXPECT_DOUBLE_EQ(d.at(0, 0), 1.14);
    EXPECT_DOUBLE_EQ(d.at(0, 1), -0.69);
    EXPECT_DOUBLE_EQ(d.at(1, 0), -2.26); // rotated right
    EXPECT_DOUBLE_EQ(d.at(1, 1), 1.14);
    EXPECT_DOUBLE_EQ(d.at(3, 1), 0.83);
}

TEST(BlockCirculant, ProjectionRoundTripIsIdentity)
{
    Rng rng(2);
    BlockCirculantMatrix w(16, 8, 4);
    w.initXavier(rng);
    const auto back =
        BlockCirculantMatrix::fromDense(w.toDense(), 4);
    for (std::size_t i = 0; i < w.raw().size(); ++i)
        EXPECT_NEAR(w.raw()[i], back.raw()[i], 1e-12);
}

TEST(BlockCirculant, ProjectionMatchesPaperFig5Example)
{
    // The paper's Fig. 5: 4x4 matrix, block size 2. Top-left block
    // [[0.5, 0.4], [1.2, -0.3]] maps to diagonal mean 0.1 and
    // off-diagonal mean 0.8.
    Matrix m(4, 4);
    const Real vals[4][4] = {
        {0.5, 0.4, -1.3, 0.5},
        {1.2, -0.3, 0.1, 0.7},
        {-0.1, 1.4, 0.6, -1.3},
        {0.7, 0.5, -0.9, 1.4},
    };
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            m.at(r, c) = vals[r][c];

    const auto z = BlockCirculantMatrix::fromDense(m, 2);
    const Matrix d = z.toDense();
    // Block (0,0): diag mean (0.5 - 0.3)/2 = 0.1,
    //              off-diag mean (0.4 + 1.2)/2 = 0.8.
    EXPECT_NEAR(d.at(0, 0), 0.1, 1e-12);
    EXPECT_NEAR(d.at(0, 1), 0.8, 1e-12);
    EXPECT_NEAR(d.at(1, 0), 0.8, 1e-12);
    EXPECT_NEAR(d.at(1, 1), 0.1, 1e-12);
    // Block (1,1): diag mean (0.6 + 1.4)/2 = 1.0,
    //              off-diag mean (-1.3 - 0.9)/2 = -1.1.
    EXPECT_NEAR(d.at(2, 2), 1.0, 1e-12);
    EXPECT_NEAR(d.at(2, 3), -1.1, 1e-12);
}

class ProjectionProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(ProjectionProperty, ProjectionIsClosestCirculantMatrix)
{
    // Property: the Euclidean mapping is distance-optimal — no
    // random circulant candidate is closer to the dense matrix.
    const std::size_t lb = std::get<0>(GetParam());
    const int trial = std::get<1>(GetParam());
    const std::size_t n = lb * 2;

    const Matrix dense =
        randomMatrix(n, n, 1000 + lb * 10 + trial);
    const auto proj = BlockCirculantMatrix::fromDense(dense, lb);
    const Real best = proj.distanceFromDense(dense);

    Rng rng(2000 + lb * 10 + trial);
    for (int k = 0; k < 25; ++k) {
        BlockCirculantMatrix cand(n, n, lb);
        // Random perturbation around the projection.
        for (std::size_t i = 0; i < cand.raw().size(); ++i)
            cand.raw()[i] = proj.raw()[i] + rng.normal(0.0, 0.2);
        cand.invalidateSpectra();
        EXPECT_GE(cand.distanceFromDense(dense) + 1e-12, best);
    }
}

TEST_P(ProjectionProperty, ProjectionIsIdempotent)
{
    const std::size_t lb = std::get<0>(GetParam());
    const int trial = std::get<1>(GetParam());
    const std::size_t n = lb * 2;
    const Matrix dense = randomMatrix(n, n, 3000 + lb + trial);
    const auto once = BlockCirculantMatrix::fromDense(dense, lb);
    const auto twice =
        BlockCirculantMatrix::fromDense(once.toDense(), lb);
    for (std::size_t i = 0; i < once.raw().size(); ++i)
        EXPECT_NEAR(once.raw()[i], twice.raw()[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    BlockSizesAndTrials, ProjectionProperty,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(0, 1, 2)));

class MatvecEquivalence : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MatvecEquivalence, FftMatchesNaiveMatchesDense)
{
    const std::size_t lb = GetParam();
    const std::size_t rows = lb * 3, cols = lb * 2;
    Rng rng(40 + lb);
    BlockCirculantMatrix w(rows, cols, lb);
    w.initXavier(rng);
    const Vector x = randomVector(cols, 50 + lb);

    const Vector y_fft = w.matvec(x, MatvecMode::Fft);
    const Vector y_naive = w.matvec(x, MatvecMode::Naive);
    const Vector y_dense = w.toDense().matvec(x);

    ASSERT_EQ(y_fft.size(), rows);
    for (std::size_t i = 0; i < rows; ++i) {
        EXPECT_NEAR(y_fft[i], y_dense[i], 1e-9) << "row " << i;
        EXPECT_NEAR(y_naive[i], y_dense[i], 1e-9) << "row " << i;
    }
}

TEST_P(MatvecEquivalence, TransposeMatchesDenseTranspose)
{
    const std::size_t lb = GetParam();
    const std::size_t rows = lb * 2, cols = lb * 3;
    Rng rng(60 + lb);
    BlockCirculantMatrix w(rows, cols, lb);
    w.initXavier(rng);
    const Vector dy = randomVector(rows, 70 + lb);

    Vector dx(cols, 0.0);
    w.matvecTransposeAcc(dy, dx);
    Vector expect(cols, 0.0);
    w.toDense().matvecTransposeAcc(dy, expect);
    for (std::size_t i = 0; i < cols; ++i)
        EXPECT_NEAR(dx[i], expect[i], 1e-9);
}

TEST_P(MatvecEquivalence, GeneratorGradMatchesDenseOuterProjection)
{
    // dL/dgen[d] must equal the sum of the dense gradient dy x^T
    // along each wrapped diagonal (chain rule through the
    // parameter-sharing of the circulant structure).
    const std::size_t lb = GetParam();
    const std::size_t rows = lb * 2, cols = lb * 2;
    Rng rng(80 + lb);
    BlockCirculantMatrix w(rows, cols, lb);
    w.initXavier(rng);
    const Vector x = randomVector(cols, 90 + lb);
    const Vector dy = randomVector(rows, 91 + lb);

    BlockCirculantMatrix grad(rows, cols, lb);
    w.generatorGradAcc(x, dy, grad);

    Matrix dense_grad(rows, cols);
    dense_grad.outerAcc(dy, x);
    for (std::size_t i = 0; i < w.blockRows(); ++i) {
        for (std::size_t j = 0; j < w.blockCols(); ++j) {
            for (std::size_t d = 0; d < lb; ++d) {
                Real expect = 0.0;
                for (std::size_t r = 0; r < lb; ++r)
                    expect += dense_grad.at(i * lb + r,
                                            j * lb + (r + d) % lb);
                EXPECT_NEAR(grad.generator(i, j)[d], expect, 1e-9);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, MatvecEquivalence,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(BlockCirculant, DecouplingFftCallCounts)
{
    // Fig. 7: for a p x q block matrix, a matvec performs q forward
    // FFTs and p inverse FFTs (not p*q of each).
    const std::size_t lb = 8, rows = 3 * lb, cols = 4 * lb;
    Rng rng(7);
    BlockCirculantMatrix w(rows, cols, lb);
    w.initXavier(rng);
    (void)w.matvec(randomVector(cols, 8)); // warm the spectrum cache

    fft::OpCountScope scope;
    (void)w.matvec(randomVector(cols, 9));
    const auto c = scope.counters();
    EXPECT_EQ(c.fftCalls, 4u);  // q
    EXPECT_EQ(c.ifftCalls, 3u); // p
}

TEST(BlockCirculant, BatchedSpectraCoresCountLanesTimesSolo)
{
    // The batched spectra cores tally their frequency-domain products
    // once per call rather than once per block; the totals must still
    // be exactly lanes x the solo path's, neither dropped nor doubled.
    const std::size_t lb = 8, rows = 3 * lb, cols = 4 * lb;
    Rng rng(11);
    BlockCirculantMatrix w(rows, cols, lb);
    w.initXavier(rng);
    w.warmSpectra();
    BlockCirculantMatrix grad(rows, cols, lb);
    const Vector x = randomVector(cols, 12);
    const Vector dy = randomVector(rows, 13);
    FftWorkspace ws, wsDy;

    fft::OpCounters fwd, bwd, gen;
    {
        fft::OpCountScope scope;
        Vector y(rows, 0.0);
        w.matvecAcc(x, y, ws);
        fwd = scope.counters();
    }
    {
        fft::OpCountScope scope;
        Vector dx(cols, 0.0);
        w.matvecTransposeAcc(dy, dx);
        bwd = scope.counters();
    }
    {
        fft::OpCountScope scope;
        w.generatorGradAcc(x, dy, grad);
        gen = scope.counters();
    }
    ASSERT_GT(fwd.realMults, 0u);
    ASSERT_GT(fwd.eltwiseMults, 0u);

    for (const std::size_t lanes : {1, 3}) {
        SCOPED_TRACE(lanes);
        const Matrix xs = randomMatrix(cols, lanes, 14);
        const Matrix dys = randomMatrix(rows, lanes, 15);
        {
            fft::OpCountScope scope;
            Matrix y(rows, lanes);
            computeSegmentSpectraBatch(xs, lb, ws);
            w.matvecAccFromSpectraBatch(y, ws);
            const fft::OpCounters c = scope.counters();
            EXPECT_EQ(c.realMults, lanes * fwd.realMults);
            EXPECT_EQ(c.cmplxMults, lanes * fwd.cmplxMults);
            EXPECT_EQ(c.eltwiseMults, lanes * fwd.eltwiseMults);
            EXPECT_EQ(c.fftCalls, lanes * fwd.fftCalls);
            EXPECT_EQ(c.ifftCalls, lanes * fwd.ifftCalls);
        }
        {
            fft::OpCountScope scope;
            Matrix dx(cols, lanes);
            computeSegmentSpectraBatch(dys, lb, ws);
            w.matvecTransposeAccFromSpectraBatch(dx, ws);
            const fft::OpCounters c = scope.counters();
            EXPECT_EQ(c.eltwiseMults, lanes * bwd.eltwiseMults);
            EXPECT_EQ(c.fftCalls, lanes * bwd.fftCalls);
            EXPECT_EQ(c.ifftCalls, lanes * bwd.ifftCalls);
        }
        {
            // The lane sum runs in the frequency domain, so the
            // inverse transforms stay at one per block.
            computeSegmentSpectraBatch(xs, lb, ws);
            computeSegmentSpectraBatch(dys, lb, wsDy);
            fft::OpCountScope scope;
            w.generatorGradAccFromSpectraBatch(ws, wsDy, lanes, grad);
            const fft::OpCounters c = scope.counters();
            EXPECT_EQ(c.eltwiseMults, lanes * gen.eltwiseMults);
            EXPECT_EQ(c.ifftCalls, gen.ifftCalls);
        }
    }
}

TEST(BlockCirculant, SpectraCacheInvalidation)
{
    Rng rng(3);
    BlockCirculantMatrix w(8, 8, 4);
    w.initXavier(rng);
    const Vector x = randomVector(8, 4);
    const Vector y1 = w.matvec(x);

    w.generator(0, 0)[0] += 1.0;
    w.invalidateSpectra();
    const Vector y2 = w.matvec(x);
    const Vector y2_naive = w.matvec(x, MatvecMode::Naive);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(y2[i], y2_naive[i], 1e-9);
    // The update must actually change the output.
    Real diff = 0;
    for (std::size_t i = 0; i < 8; ++i)
        diff += std::abs(y2[i] - y1[i]);
    EXPECT_GT(diff, 0.1);
}

TEST(BlockCirculant, BlockSizeOneDegeneratesToDense)
{
    Rng rng(5);
    BlockCirculantMatrix w(4, 4, 1);
    w.initXavier(rng);
    const Vector x = randomVector(4, 6);
    const Vector y = w.matvec(x);
    const Vector y_dense = w.toDense().matvec(x);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(y[i], y_dense[i], 1e-12);
    EXPECT_DOUBLE_EQ(w.compressionRatio(), 1.0);
}

TEST(BlockCirculant, FrobeniusNormMatchesDense)
{
    Rng rng(12);
    BlockCirculantMatrix w(16, 16, 8);
    w.initXavier(rng);
    EXPECT_NEAR(w.frobeniusNorm(), w.toDense().frobeniusNorm(), 1e-9);
}

TEST(BlockCirculant, CompressionMatchesFig1Example)
{
    // Fig. 1: a 3-block row of 3x3 circulant blocks stores 9
    // parameters instead of 27.
    BlockCirculantMatrix w(4, 12, 4);
    EXPECT_EQ(w.paramCount(), 12u);
    EXPECT_EQ(w.rows() * w.cols(), 48u);
    EXPECT_DOUBLE_EQ(w.compressionRatio(), 4.0);
}
