#ifndef DISTSKETCH_WIRE_SKETCH_SERDE_H_
#define DISTSKETCH_WIRE_SKETCH_SERDE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "sketch/adaptive_sketch.h"
#include "sketch/countsketch.h"
#include "sketch/frequent_directions.h"
#include "sketch/row_sampling.h"
#include "sketch/sliding_window.h"

namespace distsketch {

/// State of a fast (randomized-shrink) Frequent Directions sketch, the
/// frozen kind 2. The sketch class that produced it is retired — exact
/// FrequentDirections is the library's only FD — so this kind is kept
/// only so that existing v1 blobs still decode and re-encode
/// byte-for-byte. The shrink RNG position was implied by (seed,
/// shrink_count).
struct FastFdState {
  size_t dim = 0;
  size_t sketch_size = 0;
  uint64_t seed = 0;
  Matrix buffer;
  double total_shrinkage = 0.0;
  uint64_t shrink_count = 0;
};

namespace wire {

/// Sketch blob format, frozen as version 1 (see DESIGN.md §11).
///
/// Header layout (little-endian, 32 bytes):
///   0:  u32 magic "DSSK"
///   4:  u16 version (= 1)
///   6:  u8  kind (SketchKind)
///   7:  u8  flags (= 0; readers reject nonzero)
///   8:  u64 blob_bytes (total blob length, header included)
///   16: u64 checksum = Checksum64 of bytes [24, blob_bytes)
///   24: u32 section_count
///   28: u32 header echo = version << 16 | kind << 8 | flags
/// followed by section_count 24-byte section-table entries
///   { u32 id; u32 type; u64 offset; u64 length }
/// and then the section bodies, zero-padded so that word sections start
/// at offset ≡ 0 (mod 8) and dense sections at offset ≡ 4 (mod 8) — the
/// dense body's 20-byte shape header then leaves its f64 entries 8-byte
/// aligned, which is what makes the compact form zero-copy readable.
///
/// The version and kind bytes sit outside the checksummed range so a
/// version bump is reported as a version error, not a checksum error;
/// the header echo at offset 28 repeats them *inside* the checksummed
/// range so any single-bit corruption of the header is still caught.
inline constexpr uint32_t kSketchMagic = 0x4B535344;  // "DSSK" LE
inline constexpr uint16_t kSketchFormatVersion = 1;
inline constexpr size_t kSketchHeaderBytes = 32;
inline constexpr size_t kSketchSectionEntryBytes = 24;

/// What a sketch blob contains. Values are frozen: never renumber.
enum class SketchKind : uint8_t {
  kFrequentDirections = 1,
  kFastFrequentDirections = 2,  // frozen, decode-only (FastFdState)
  kSvs = 3,
  kAdaptive = 4,
  kCountSketch = 5,
  kSlidingWindow = 6,
  kRowSampling = 7,
  kCoordinatorCheckpoint = 8,
};

/// Section payload encodings. Values are frozen: never renumber.
enum class SectionType : uint32_t {
  /// Array of 8-byte little-endian words (u64 or f64 bit patterns).
  kWords = 1,
  /// A dense matrix body, byte-identical to the DSMT wire/dsmat body.
  kDense = 2,
  /// Raw bytes (presence bitmaps, nested sketch blobs).
  kBytes = 3,
};

/// Section ids. Values are frozen: never renumber. Ids >= kSecBlockBase
/// are the per-block dense sections of a sliding-window blob (block i at
/// id kSecBlockBase + i).
inline constexpr uint32_t kSecParams = 1;
inline constexpr uint32_t kSecPrimaryMatrix = 2;
inline constexpr uint32_t kSecRngState = 3;
inline constexpr uint32_t kSecWeights = 4;
inline constexpr uint32_t kSecPresence = 5;
inline constexpr uint32_t kSecHeadMatrix = 6;
inline constexpr uint32_t kSecTailMatrix = 7;
inline constexpr uint32_t kSecBlockIndex = 8;
inline constexpr uint32_t kSecDoneBitmap = 9;
inline constexpr uint32_t kSecNestedBlob = 10;
inline constexpr uint32_t kSecExtraMatrix = 11;
inline constexpr uint32_t kSecBlockBase = 32;

/// Serializable state of an SVS run: the sampled sketch plus the sampling
/// accounting and the seed that drove it. SVS itself is a stateless
/// function; this is the coordinator-side record of one invocation.
struct SvsSketchState {
  Matrix sketch;
  uint64_t candidates = 0;
  uint64_t sampled = 0;
  double expected_sampled = 0.0;
  uint64_t seed = 0;
};

/// Serializers: state struct -> v1 blob. Deterministic byte-for-byte
/// (no timestamps, no map iteration); re-serializing a round-tripped
/// state reproduces the input blob exactly.
std::vector<uint8_t> SerializeSketchState(const FdSketchState& state);
std::vector<uint8_t> SerializeSketchState(const FastFdState& state);
std::vector<uint8_t> SerializeSketchState(const SvsSketchState& state);
std::vector<uint8_t> SerializeSketchState(const AdaptiveSketchState& state);
std::vector<uint8_t> SerializeSketchState(const CountSketchState& state);
std::vector<uint8_t> SerializeSketchState(const SlidingWindowState& state);
std::vector<uint8_t> SerializeSketchState(const RowSamplingState& state);

/// Convenience: live update-form sketch -> v1 blob via ExportState().
std::vector<uint8_t> SerializeSketch(const FrequentDirections& sketch);
std::vector<uint8_t> SerializeSketch(const AdaptiveLocalSketch& sketch);
std::vector<uint8_t> SerializeSketch(const CountSketchCompressor& sketch);
std::vector<uint8_t> SerializeSketch(const SlidingWindowSketch& sketch);
std::vector<uint8_t> SerializeSketch(const RowSamplingSketch& sketch);

/// Zero-copy view of a dense section inside a compact sketch: `rows` x
/// `cols` row-major f64 entries at `data`, pointing into the wrapped
/// buffer (valid only while the buffer outlives the view).
struct DenseView {
  size_t rows = 0;
  size_t cols = 0;
  const double* data = nullptr;
};

/// Read-only compact form of a serialized sketch.
///
/// Wrap() validates the envelope (magic, version, kind, flags, length,
/// checksum, section-table bounds) once and then exposes offset-indexed
/// access to the sections — word arrays and dense matrix entries are
/// read in place, with no copy of the underlying buffer. The wrapped
/// buffer must stay alive and unmodified for the lifetime of the
/// CompactSketch and of any view it hands out, and must be 8-byte
/// aligned (heap buffers always are).
///
/// To*State() / To*() convert the compact form back to a heap-backed
/// update-form sketch that can continue streaming.
class CompactSketch {
 public:
  /// Validates and wraps `size` bytes at `data` (no copy). On any
  /// malformation returns InvalidArgument with one of the stable
  /// substrings: "truncated header", "bad magic", "unsupported sketch
  /// format version", "unknown sketch kind", "unsupported flags",
  /// "length mismatch", "misaligned buffer", "checksum mismatch",
  /// "header echo mismatch", "bad section".
  static StatusOr<CompactSketch> Wrap(const uint8_t* data, size_t size);

  SketchKind kind() const { return kind_; }
  uint16_t version() const { return kSketchFormatVersion; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  size_t section_count() const { return sections_.size(); }

  bool HasSection(uint32_t id) const;

  /// The raw bytes of section `id` (any type).
  StatusOr<std::span<const uint8_t>> SectionBytes(uint32_t id) const;

  /// The words of a kWords section, read in place (8-byte aligned by
  /// construction). f64 fields are bit-cast from their word.
  StatusOr<std::span<const uint64_t>> SectionWords(uint32_t id) const;

  /// Zero-copy view of a kDense section's matrix entries.
  StatusOr<DenseView> DenseSection(uint32_t id) const;

  /// Heap copy of a kDense section as a Matrix.
  StatusOr<Matrix> DenseCopy(uint32_t id) const;

  /// Compact -> update-form state conversions. Each checks kind() first
  /// and validates the section inventory and parameter invariants.
  StatusOr<FdSketchState> ToFdState() const;
  StatusOr<FastFdState> ToFastFdState() const;
  StatusOr<SvsSketchState> ToSvsState() const;
  StatusOr<AdaptiveSketchState> ToAdaptiveState() const;
  StatusOr<CountSketchState> ToCountSketchState() const;
  StatusOr<SlidingWindowState> ToSlidingWindowState() const;
  StatusOr<RowSamplingState> ToRowSamplingState() const;

  /// Compact -> live update-form sketch conversions.
  StatusOr<FrequentDirections> ToFrequentDirections() const;
  StatusOr<AdaptiveLocalSketch> ToAdaptiveLocalSketch() const;
  StatusOr<CountSketchCompressor> ToCountSketch() const;
  StatusOr<SlidingWindowSketch> ToSlidingWindow() const;
  StatusOr<RowSamplingSketch> ToRowSampling() const;

 private:
  struct Section {
    uint32_t id = 0;
    SectionType type = SectionType::kBytes;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  CompactSketch(const uint8_t* data, size_t size, SketchKind kind,
                std::vector<Section> sections)
      : data_(data), size_(size), kind_(kind),
        sections_(std::move(sections)) {}

  static StatusOr<CompactSketch> WrapImpl(const uint8_t* data, size_t size);

  const Section* FindSection(uint32_t id) const;

  const uint8_t* data_;
  size_t size_;
  SketchKind kind_;
  std::vector<Section> sections_;
};

/// Coordinator progress record for a checkpointed protocol run: which
/// servers have been folded into the partial result, the broadcast
/// scalar (SVS global mass; unused for FD merge), the partial sketch as
/// a nested v1 blob, and a protocol-specific extra matrix (SVS: row 0 =
/// per-server masses, row 1 = liveness 0/1).
struct CoordinatorCheckpoint {
  uint64_t protocol_id = 0;  // 1 = fd_merge, 2 = svs
  uint64_t servers_total = 0;
  std::vector<uint8_t> done;  // servers_total entries, 0/1
  double global_scalar = 0.0;
  std::vector<uint8_t> sketch_blob;  // nested v1 sketch blob (may be empty)
  Matrix extra;
};

/// Checkpoint <-> v1 blob (kind kCoordinatorCheckpoint).
std::vector<uint8_t> EncodeCoordinatorCheckpoint(
    const CoordinatorCheckpoint& checkpoint);
StatusOr<CoordinatorCheckpoint> DecodeCoordinatorCheckpoint(
    const uint8_t* data, size_t size);

}  // namespace wire
}  // namespace distsketch

#endif  // DISTSKETCH_WIRE_SKETCH_SERDE_H_
