#include "runtime/checkpoint.hh"

#include <cstring>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"
#include "runtime/wire.hh"

namespace ernn::runtime
{

namespace detail
{

/**
 * Private-access key (friended by StreamState) that lets the
 * checkpoint codec in this translation unit read and rebuild stream
 * internals without widening the public surface sessions step on.
 */
struct StreamStateAccess
{
    static const StackState &layers(const StreamState &s)
    {
        return s.layers_;
    }

    static StackState &layers(StreamState &s)
    {
        return s.layers_;
    }

    static std::size_t frames(const StreamState &s)
    {
        return s.frames_;
    }

    static void stamp(StreamState &s, std::uint64_t fingerprint,
                      std::size_t frames)
    {
        s.model_ = fingerprint;
        s.frames_ = frames;
    }
};

} // namespace detail

namespace
{

using detail::fnv1a64;
using detail::Reader;
using detail::StackState;
using detail::StreamStateAccess;
using detail::Writer;

constexpr char kMagic[8] = {'E', 'R', 'N', 'N', 'C', 'K', 'P', 'T'};

// magic + version + total bytes; the trailing checksum is 8 more.
constexpr std::size_t kHeaderBytes =
    sizeof kMagic + sizeof(std::uint32_t) + sizeof(std::uint64_t);
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

/**
 * Plausibility bound on the per-layer state vectors a blob may
 * declare: far beyond any RNN layer width, small enough that a
 * crafted (checksum-valid) blob dies with a named fatal instead of
 * a giant allocation. Matches the artifact loader's kMaxDim.
 */
constexpr std::size_t kMaxStateDim = std::size_t{1} << 24;

} // namespace

std::uint64_t
modelFingerprint(const CompiledModel &model)
{
    // Canonical byte encoding of everything a stream's continuation
    // depends on structurally: state geometry per layer plus the
    // value-quantization semantics. Weights are values, not shape —
    // excluded on purpose (see the header).
    Writer w;
    w.bytes("ernn-stream-fingerprint-v1");
    w.size(model.inputSize());
    w.size(model.numClasses());
    const Datapath &dp = model.datapath();
    w.u8(dp.fixedPoint ? 1 : 0);
    w.i32(dp.fixedPoint ? dp.valueFormat.totalBits : 0);
    w.i32(dp.fixedPoint ? dp.valueFormat.fracBits : 0);
    w.size(model.numLayers());
    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        const CompiledLayer &layer = model.layer(i);
        w.bytes(layer.kindName());
        w.size(layer.inputSize());
        w.size(layer.outputSize());
        // A stream's state is the layer's one-lane batch state.
        LayerBatchState probe;
        layer.initBatchState(probe, 1);
        w.size(probe.h.size());
        w.size(probe.c.size());
    }
    const std::string bytes = w.take();
    return fnv1a64(bytes.data(), bytes.size());
}

std::string
checkpointStream(const CompiledModel &model, const StreamState &state,
                 const std::string &aux)
{
    ernn_assert(StreamStateAccess::layers(state).size() ==
                model.numLayers(),
                "checkpoint: stream belongs to a different model ("
                << StreamStateAccess::layers(state).size()
                << " layers vs " << model.numLayers() << ")");

    Writer w;
    for (char c : kMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kCheckpointFormatVersion);
    const std::size_t totalPatch = w.tell();
    w.u64(0); // total bytes, patched below
    w.u64(modelFingerprint(model));
    w.u64(StreamStateAccess::frames(state));
    w.u32(static_cast<std::uint32_t>(model.numLayers()));
    for (const LayerBatchState &l : StreamStateAccess::layers(state)) {
        w.reals(l.h.raw());
        w.reals(l.c.raw());
    }
    w.bytes(aux);

    w.patchU64(totalPatch, w.tell() + kChecksumBytes);
    // The checksum covers every preceding byte, total-bytes included.
    std::string blob = w.take();
    const std::uint64_t checksum = fnv1a64(blob.data(), blob.size());
    blob.append(reinterpret_cast<const char *>(&checksum),
                sizeof checksum);
    return blob;
}

namespace
{

/**
 * Validate @p blob's framing and checksum (the model-independent
 * part of the restore contract) and return a Reader positioned past
 * the already-validated header. Fatal with a named diagnostic on
 * any malformation; validation order is part of the error contract:
 * magic first (is this a checkpoint at all?), then version, then
 * declared size (was it truncated?), then the checksum.
 */
Reader
openCheckpoint(const std::string &blob)
{
    const char *data = blob.data();
    const std::size_t size = blob.size();
    if (size < kHeaderBytes + kChecksumBytes)
        ernn_fatal("truncated stream checkpoint: " << size
                   << " bytes is smaller than the "
                   << kHeaderBytes + kChecksumBytes
                   << "-byte header");
    if (std::memcmp(data, kMagic, sizeof kMagic) != 0)
        ernn_fatal("not a stream checkpoint (bad magic)");

    std::uint32_t version;
    std::memcpy(&version, data + sizeof kMagic, sizeof version);
    if (version != kCheckpointFormatVersion)
        ernn_fatal("stream checkpoint format version " << version
                   << " is not supported by this build (reads "
                   << kCheckpointFormatVersion << ")");

    std::uint64_t declared;
    std::memcpy(&declared, data + sizeof kMagic + sizeof version,
                sizeof declared);
    if (declared != size) {
        if (size < declared)
            ernn_fatal("truncated stream checkpoint: header declares "
                       << declared << " bytes, blob has " << size);
        ernn_fatal("stream checkpoint has " << size - declared
                   << " trailing bytes past the declared " << declared
                   << "-byte payload");
    }

    std::uint64_t stored;
    std::memcpy(&stored, data + size - kChecksumBytes, sizeof stored);
    const std::uint64_t actual = fnv1a64(data, size - kChecksumBytes);
    if (stored != actual)
        ernn_fatal("stream checkpoint checksum mismatch (stored 0x"
                   << std::hex << stored << ", computed 0x" << actual
                   << std::dec << "): the blob is corrupted");

    Reader r(data, size - kChecksumBytes, "stream checkpoint");
    for (std::size_t i = 0; i < sizeof kMagic; ++i)
        r.u8("magic");
    r.u32("format version");
    r.u64("declared size");
    return r;
}

} // namespace

void
restoreStream(const CompiledModel &model, StreamState &state,
              const std::string &blob, std::string *aux)
{
    Reader r = openCheckpoint(blob);

    const std::uint64_t fingerprint = r.u64("model fingerprint");
    const std::uint64_t expect = modelFingerprint(model);
    if (fingerprint != expect)
        ernn_fatal("stream checkpoint belongs to a different model "
                   "(fingerprint 0x" << std::hex << fingerprint
                   << ", this model is 0x" << expect << std::dec
                   << "): refusing to restore");

    const std::uint64_t frames = r.u64("frame counter");
    const std::size_t layers = r.u32("layer count");
    if (layers != model.numLayers())
        ernn_fatal("stream checkpoint carries " << layers
                   << " layer states, model has " << model.numLayers());

    // Decode into a staging area first: a restore either succeeds
    // completely or aborts, never leaving @p state half-overwritten.
    StackState staged(layers);
    const Datapath &dp = model.datapath();
    for (std::size_t i = 0; i < layers; ++i) {
        LayerBatchState &st = staged[i];
        model.layer(i).initBatchState(st, 1);
        const std::size_t wantH = st.h.size();
        const std::size_t wantC = st.c.size();
        r.realsInto(st.h.raw(), "layer state h");
        r.realsInto(st.c.raw(), "layer state c");
        // Defense in depth behind the fingerprint: the committed
        // state's geometry must match what the layer would create,
        // or the kernels' inner loops would index out of bounds.
        if (st.h.size() != wantH || st.c.size() != wantC ||
            st.h.size() > kMaxStateDim || st.c.size() > kMaxStateDim)
            ernn_fatal("stream checkpoint layer " << i << " state is "
                       << st.h.size() << "/" << st.c.size()
                       << " values, model layer needs " << wantH
                       << "/" << wantC);
        // Pin restored values to the value grid (identity for a
        // legitimate checkpoint): the integer datapath's LUTs index
        // by grid code, and an off-grid value smuggled past the
        // checksum would silently diverge from the f64 oracle.
        dp.post(st.h.raw());
        dp.post(st.c.raw());
    }

    std::string auxBytes;
    r.bytesInto(auxBytes, "aux payload");
    if (!r.done())
        ernn_fatal("stream checkpoint has " << r.remainingBytes()
                   << " undecoded payload bytes: writer/reader "
                   "version bug");

    StreamStateAccess::layers(state) = std::move(staged);
    StreamStateAccess::stamp(state, fingerprint,
                             static_cast<std::size_t>(frames));
    if (aux)
        *aux = std::move(auxBytes);
}

CheckpointInfo
describeCheckpoint(const std::string &blob)
{
    Reader r = openCheckpoint(blob);
    CheckpointInfo info;
    info.version = kCheckpointFormatVersion;
    info.totalBytes = blob.size();
    info.fingerprint = r.u64("model fingerprint");
    info.frames = r.u64("frame counter");
    info.layers = r.u32("layer count");
    if (info.layers > kMaxStateDim)
        ernn_fatal("stream checkpoint declares " << info.layers
                   << " layers: implausible");
    std::vector<Real> scratch;
    for (std::size_t i = 0; i < info.layers; ++i) {
        r.realsInto(scratch, "layer state h");
        info.stateValues += scratch.size();
        r.realsInto(scratch, "layer state c");
        info.stateValues += scratch.size();
    }
    std::string auxBytes;
    r.bytesInto(auxBytes, "aux payload");
    info.auxBytes = auxBytes.size();
    if (!r.done())
        ernn_fatal("stream checkpoint has " << r.remainingBytes()
                   << " undecoded payload bytes: writer/reader "
                   "version bug");
    return info;
}

} // namespace ernn::runtime
