/**
 * @file
 * Independent f64 reference the benchmark checks libernn's outputs
 * against. It reads the trained nn:: weights (dense matrices, or the
 * generators of block-circulant ones, which it expands itself) and
 * runs plain loops: no call reaches the compute code of tensor::,
 * circulant::, quant:: or runtime::. The log-mel reference is a naive
 * O(N^2) DFT with its own window and mel filterbank.
 */
#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstddef>
#include <vector>

#include "nn/rnn.hh"
#include "speech/frontend.hh"

namespace ernn::perfbench::ref
{

/** Row-major dense f64 matrix. */
struct Dense
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<double> w;
};

/**
 * Expand block-circulant generators, laid out [blockRow][blockCol][d],
 * into a dense matrix: block (i, j) holds g_ij[(c - r) mod b] at row
 * r, column c.
 */
Dense expandCirculant(std::size_t rows, std::size_t cols,
                      std::size_t block, const double *generators);

/** Dense copy of any trained linear operator's weight. */
Dense denseOf(const nn::LinearOp &op);

/**
 * True when every b x b block of the row-major @p rows x @p cols
 * matrix is exactly circulant (each wrapped diagonal one value).
 */
bool isBlockCirculant(const double *w, std::size_t rows,
                      std::size_t cols, std::size_t block);

/** One recurrent layer, weights expanded to dense. */
struct Layer
{
    bool gru = false;
    bool peephole = false;
    bool tanhCell = true;   //!< LSTM g / GRU candidate activation
    bool tanhOutput = true; //!< LSTM output activation
    std::size_t hidden = 0;
    std::size_t output = 0;
    /** Input / recurrent matrices in gate order: LSTM i, f, c, o;
     *  GRU z, r, candidate. */
    std::vector<Dense> wx, wr;
    std::vector<std::vector<double>> bias;
    std::vector<double> wic, wfc, woc;
    Dense wym; //!< LSTM projection (rows == 0 when absent)
};

/** A whole stacked model plus its dense classifier. */
struct Model
{
    std::vector<Layer> layers;
    Dense classifier;
    std::vector<double> classifierBias;
};

/** Snapshot the weights of a trained (or initialised) model. */
Model fromModel(const nn::StackedRnn &model);

/** Per-frame logits of one utterance through the reference. */
nn::Sequence forward(const Model &model, const nn::Sequence &frames);

/**
 * Log-mel energies of frame @p frame of @p samples under @p cfg
 * (numCepstra must be 0), via pre-emphasis, a Hamming window and a
 * naive DFT.
 */
std::vector<double> logMelFrame(const std::vector<double> &samples,
                                std::size_t frame,
                                const speech::FrontendConfig &cfg);

/** Largest |a - b| over two logit sequences; +inf on a shape
 *  mismatch (a dropped or extra frame). */
double maxAbsDiff(const nn::Sequence &a, const nn::Sequence &b);

/** Bitwise equality of two sequences. */
bool bitEqual(const nn::Sequence &a, const nn::Sequence &b);

} // namespace ernn::perfbench::ref

#endif // PERFBENCH_REFERENCE_HH
