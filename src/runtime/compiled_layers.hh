/**
 * @file
 * Concrete compiled layer implementations (runtime-internal).
 *
 * A compiled layer is assembled from a *parts* bundle — the frozen
 * kernels, biases, and static configuration that fully determine its
 * datapath. Two producers build the same bundles:
 *
 *  - runtime::compile() freezes a trained nn:: layer (kernels are
 *    selected from the backend registry, biases rounded per-tensor
 *    for the FixedPoint backend);
 *  - runtime::loadArtifact() rehydrates the bundle from a serialized
 *    artifact (spectra and PWL tables are re-derived, never stored).
 *
 * Keeping construction parts-based is what makes the on-disk artifact
 * format (runtime/artifact.hh) a faithful, bit-exact mirror of the
 * in-memory model: save() walks the parts, load() rebuilds them.
 *
 * This header is internal to src/runtime — user code should only see
 * CompiledLayer through CompiledModel::layer().
 *
 * Threading: stepBatch() runs each gate's batch GEMM through the
 * compute pool the session lends via KernelScratch::pool (null =
 * serial). Layers never spawn threads themselves, and the row/block
 * partition inside each kernel never reorders an accumulation chain,
 * so any thread count produces the serial bits.
 */

#ifndef ERNN_RUNTIME_COMPILED_LAYERS_HH
#define ERNN_RUNTIME_COMPILED_LAYERS_HH

#include <memory>

#include "nn/gru.hh"
#include "nn/lstm.hh"
#include "runtime/compiled_model.hh"

namespace ernn::runtime::detail
{

/**
 * Frozen tensors of one LSTM layer. Kernels must be non-null (except
 * wym, null when the config has no projection); peephole vectors are
 * empty when cfg.peephole is false. Biases and peepholes hold their
 * *frozen* values — already rounded for the FixedPoint backend — so
 * a rehydrated bundle needs no re-quantization.
 */
struct LstmParts
{
    nn::LstmConfig cfg;
    std::unique_ptr<LinearKernel> wix, wfx, wcx, wox; //!< gates on x_t
    std::unique_ptr<LinearKernel> wir, wfr, wcr, wor; //!< gates on y_{t-1}
    std::unique_ptr<LinearKernel> wym;                //!< projection (opt.)
    Vector bi, bf, bc, bo;                            //!< gate biases
    Vector wic, wfc, woc;                             //!< diag. peepholes
};

/** Frozen tensors of one GRU layer (see LstmParts). */
struct GruParts
{
    nn::GruConfig cfg;
    std::unique_ptr<LinearKernel> wzx, wrx, wcx; //!< gates on x_t
    std::unique_ptr<LinearKernel> wzc, wrc, wcc; //!< gates on c_{t-1}
    Vector bz, br, bc;                           //!< gate biases
};

class CompiledLstmLayer : public CompiledLayer
{
  public:
    /** Assemble from frozen parts; panics on inconsistent shapes. */
    explicit CompiledLstmLayer(LstmParts parts);

    std::size_t inputSize() const override;
    std::size_t outputSize() const override;
    std::string kindName() const override { return "lstm"; }
    std::size_t storedParams() const override;

    void initBatchState(LayerBatchState &state,
                        std::size_t lanes) const override;
    void initBatchScratch(LayerBatchScratch &scratch,
                          std::size_t lanes) const override;
    void stepBatch(const Matrix &x, LayerBatchState &state, Matrix &y,
                   LayerBatchScratch &scratch, KernelScratch &kernels,
                   const Datapath &dp) const override;
    std::vector<const LinearKernel *> kernels() const override;

    /** Read-only view of the frozen parts (artifact serialization). */
    const LstmParts &parts() const { return p_; }

  private:
    LstmParts p_;

    /** Shared-operand gate groups (empty = unfused fallback). */
    std::vector<const circulant::BlockCirculantMatrix *> fusedInput_;
    std::vector<const circulant::BlockCirculantMatrix *> fusedRec_;
};

class CompiledGruLayer : public CompiledLayer
{
  public:
    /** Assemble from frozen parts; panics on inconsistent shapes. */
    explicit CompiledGruLayer(GruParts parts);

    std::size_t inputSize() const override;
    std::size_t outputSize() const override;
    std::string kindName() const override { return "gru"; }
    std::size_t storedParams() const override;

    void initBatchState(LayerBatchState &state,
                        std::size_t lanes) const override;
    void initBatchScratch(LayerBatchScratch &scratch,
                          std::size_t lanes) const override;
    void stepBatch(const Matrix &x, LayerBatchState &state, Matrix &y,
                   LayerBatchScratch &scratch, KernelScratch &kernels,
                   const Datapath &dp) const override;
    std::vector<const LinearKernel *> kernels() const override;

    /** Read-only view of the frozen parts (artifact serialization). */
    const GruParts &parts() const { return p_; }

  private:
    GruParts p_;

    /** Shared-operand gate groups (empty = unfused fallback). */
    std::vector<const circulant::BlockCirculantMatrix *> fusedInput_;
    std::vector<const circulant::BlockCirculantMatrix *> fusedRec_;
};

/**
 * Rebuild the frozen datapath (value format + PWL activation tables)
 * from compile options. Deterministic: compile() and loadArtifact()
 * both call this, so a loaded artifact's tables are bit-identical to
 * the originals without ever being stored.
 */
Datapath makeDatapath(const CompileOptions &opts);

} // namespace ernn::runtime::detail

#endif // ERNN_RUNTIME_COMPILED_LAYERS_HH
