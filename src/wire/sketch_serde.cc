#include "wire/sketch_serde.h"

#include <bit>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"
#include "wire/checksum.h"
#include "wire/codec.h"

namespace distsketch {
namespace wire {
namespace {

// Shape sanity limits shared with the matrix codec: a dense section whose
// header exceeds these is corrupt, not merely large. Keeping rows below
// 2^32 and cols below 2^24 also makes every rows*cols*8 product fit in 64
// bits, so the bounds arithmetic below cannot overflow.
constexpr uint64_t kMaxRows = 1ULL << 32;
constexpr uint64_t kMaxCols = 1ULL << 24;
constexpr size_t kDenseBodyHeaderBytes = 4 + 8 + 8;
constexpr uint32_t kMinSketchKind = 1;
constexpr uint32_t kMaxSketchKind = 8;
constexpr size_t kRngStateWords = 6;

template <typename T>
T ReadPod(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void WritePod(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

uint32_t HeaderEcho(uint8_t kind, uint8_t flags) {
  return (static_cast<uint32_t>(kSketchFormatVersion) << 16) |
         (static_cast<uint32_t>(kind) << 8) | static_cast<uint32_t>(flags);
}

// Wall-clock serde metering, same discipline as the frame codec: host
// time only, gated on the telemetry switch so the disabled path costs a
// single load.
struct SerializeScope {
  bool telem = telemetry::Telemetry::Current()->enabled();
  uint64_t t0 = telem ? telemetry::Telemetry::WallNowNs() : 0;
  ~SerializeScope() {
    if (telem) {
      telemetry::Observe("serde.serialize_ns",
                         telemetry::Telemetry::WallNowNs() - t0);
      telemetry::Count("serde.blobs_serialized");
    }
  }
};

/// Accumulates sections and emits the framed v1 blob. Section order is
/// the insertion order, and padding is always zero bytes, so a given
/// logical state has exactly one byte representation.
class BlobWriter {
 public:
  explicit BlobWriter(SketchKind kind) : kind_(kind) {}

  void AddWords(uint32_t id, const std::vector<uint64_t>& words) {
    Section section;
    section.id = id;
    section.type = SectionType::kWords;
    section.body.resize(words.size() * 8);
    if (!words.empty()) {
      std::memcpy(section.body.data(), words.data(), section.body.size());
    }
    sections_.push_back(std::move(section));
  }

  void AddDense(uint32_t id, const Matrix& m) {
    Section section;
    section.id = id;
    section.type = SectionType::kDense;
    AppendDenseBody(m, &section.body);
    sections_.push_back(std::move(section));
  }

  void AddBytes(uint32_t id, const uint8_t* data, size_t size) {
    Section section;
    section.id = id;
    section.type = SectionType::kBytes;
    section.body.assign(data, data + size);
    sections_.push_back(std::move(section));
  }

  std::vector<uint8_t> Finish() const {
    const size_t table_end = kSketchHeaderBytes +
                             sections_.size() * kSketchSectionEntryBytes;
    std::vector<uint64_t> offsets(sections_.size());
    size_t cursor = table_end;
    for (size_t i = 0; i < sections_.size(); ++i) {
      // Dense sections start at 4 (mod 8) so their f64 entries (20 bytes
      // into the body) land 8-byte aligned; everything else at 0 (mod 8)
      // so word sections and nested blobs are directly addressable.
      const size_t want_mod =
          sections_[i].type == SectionType::kDense ? 4 : 0;
      while (cursor % 8 != want_mod) ++cursor;
      offsets[i] = cursor;
      cursor += sections_[i].body.size();
    }
    std::vector<uint8_t> out(cursor, 0);
    WritePod<uint32_t>(out.data(), kSketchMagic);
    WritePod<uint16_t>(out.data() + 4, kSketchFormatVersion);
    out[6] = static_cast<uint8_t>(kind_);
    out[7] = 0;  // flags
    WritePod<uint64_t>(out.data() + 8, out.size());
    WritePod<uint32_t>(out.data() + 24,
                       static_cast<uint32_t>(sections_.size()));
    WritePod<uint32_t>(out.data() + 28,
                       HeaderEcho(static_cast<uint8_t>(kind_), 0));
    for (size_t i = 0; i < sections_.size(); ++i) {
      uint8_t* entry =
          out.data() + kSketchHeaderBytes + i * kSketchSectionEntryBytes;
      WritePod<uint32_t>(entry, sections_[i].id);
      WritePod<uint32_t>(entry + 4,
                         static_cast<uint32_t>(sections_[i].type));
      WritePod<uint64_t>(entry + 8, offsets[i]);
      WritePod<uint64_t>(entry + 16, sections_[i].body.size());
      if (!sections_[i].body.empty()) {
        std::memcpy(out.data() + offsets[i], sections_[i].body.data(),
                    sections_[i].body.size());
      }
    }
    WritePod<uint64_t>(out.data() + 16,
                       Checksum64(out.data() + 24, out.size() - 24));
    return out;
  }

 private:
  struct Section {
    uint32_t id = 0;
    SectionType type = SectionType::kBytes;
    std::vector<uint8_t> body;
  };

  SketchKind kind_;
  std::vector<Section> sections_;
};

std::vector<uint64_t> RngWords(const RngState& rng) {
  return {rng.s[0],
          rng.s[1],
          rng.s[2],
          rng.s[3],
          std::bit_cast<uint64_t>(rng.spare_gaussian),
          rng.has_spare_gaussian ? 1ULL : 0ULL};
}

}  // namespace

std::vector<uint8_t> SerializeSketchState(const FdSketchState& state) {
  SerializeScope scope;
  BlobWriter writer(SketchKind::kFrequentDirections);
  writer.AddWords(kSecParams,
                  {state.dim, state.sketch_size,
                   std::bit_cast<uint64_t>(state.total_shrinkage),
                   state.shrink_count, state.rows_seen});
  writer.AddDense(kSecPrimaryMatrix, state.buffer);
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketchState(const FastFdState& state) {
  SerializeScope scope;
  BlobWriter writer(SketchKind::kFastFrequentDirections);
  writer.AddWords(kSecParams,
                  {state.dim, state.sketch_size, state.seed,
                   std::bit_cast<uint64_t>(state.total_shrinkage),
                   state.shrink_count});
  writer.AddDense(kSecPrimaryMatrix, state.buffer);
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketchState(const SvsSketchState& state) {
  SerializeScope scope;
  BlobWriter writer(SketchKind::kSvs);
  writer.AddWords(kSecParams,
                  {state.candidates, state.sampled,
                   std::bit_cast<uint64_t>(state.expected_sampled),
                   state.seed});
  writer.AddDense(kSecPrimaryMatrix, state.sketch);
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketchState(const AdaptiveSketchState& state) {
  SerializeScope scope;
  BlobWriter writer(SketchKind::kAdaptive);
  writer.AddWords(kSecParams,
                  {state.dim, std::bit_cast<uint64_t>(state.eps), state.k,
                   state.seed, state.finished ? 1ULL : 0ULL,
                   std::bit_cast<uint64_t>(state.tail_mass)});
  const std::vector<uint8_t> fd_blob = SerializeSketchState(state.fd);
  writer.AddBytes(kSecNestedBlob, fd_blob.data(), fd_blob.size());
  writer.AddDense(kSecHeadMatrix, state.head);
  writer.AddDense(kSecTailMatrix, state.tail);
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketchState(const CountSketchState& state) {
  SerializeScope scope;
  BlobWriter writer(SketchKind::kCountSketch);
  writer.AddWords(kSecParams,
                  {state.compressed.rows(), state.compressed.cols(),
                   state.seed});
  writer.AddDense(kSecPrimaryMatrix, state.compressed);
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketchState(const SlidingWindowState& state) {
  SerializeScope scope;
  BlobWriter writer(SketchKind::kSlidingWindow);
  writer.AddWords(kSecParams,
                  {state.dim, state.window,
                   std::bit_cast<uint64_t>(state.eps), state.block_rows,
                   state.active_begin, state.rows_seen,
                   std::bit_cast<uint64_t>(state.max_row_norm),
                   state.blocks.size()});
  const std::vector<uint8_t> active_blob =
      SerializeSketchState(state.active);
  writer.AddBytes(kSecNestedBlob, active_blob.data(), active_blob.size());
  std::vector<uint64_t> index;
  index.reserve(2 * state.blocks.size());
  for (const SlidingWindowBlockState& block : state.blocks) {
    index.push_back(block.begin);
    index.push_back(block.end);
  }
  writer.AddWords(kSecBlockIndex, index);
  for (size_t i = 0; i < state.blocks.size(); ++i) {
    writer.AddDense(kSecBlockBase + static_cast<uint32_t>(i),
                    state.blocks[i].sketch);
  }
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketchState(const RowSamplingState& state) {
  SerializeScope scope;
  BlobWriter writer(SketchKind::kRowSampling);
  writer.AddWords(kSecParams,
                  {state.dim, state.num_samples,
                   std::bit_cast<uint64_t>(state.total_mass)});
  writer.AddWords(kSecRngState, RngWords(state.rng));
  writer.AddDense(kSecPrimaryMatrix, state.reservoir);
  std::vector<uint64_t> weights;
  weights.reserve(state.weights.size());
  for (double w : state.weights) {
    weights.push_back(std::bit_cast<uint64_t>(w));
  }
  writer.AddWords(kSecWeights, weights);
  writer.AddBytes(kSecPresence, state.present.data(), state.present.size());
  return writer.Finish();
}

std::vector<uint8_t> SerializeSketch(const FrequentDirections& sketch) {
  return SerializeSketchState(sketch.ExportState());
}
std::vector<uint8_t> SerializeSketch(const AdaptiveLocalSketch& sketch) {
  return SerializeSketchState(sketch.ExportState());
}
std::vector<uint8_t> SerializeSketch(const CountSketchCompressor& sketch) {
  return SerializeSketchState(sketch.ExportState());
}
std::vector<uint8_t> SerializeSketch(const SlidingWindowSketch& sketch) {
  return SerializeSketchState(sketch.ExportState());
}
std::vector<uint8_t> SerializeSketch(const RowSamplingSketch& sketch) {
  return SerializeSketchState(sketch.ExportState());
}

StatusOr<CompactSketch> CompactSketch::WrapImpl(const uint8_t* data,
                                                size_t size) {
  if (data == nullptr || size < kSketchHeaderBytes) {
    return Status::InvalidArgument("sketch blob: truncated header");
  }
  if (ReadPod<uint32_t>(data) != kSketchMagic) {
    return Status::InvalidArgument("sketch blob: bad magic");
  }
  const uint16_t version = ReadPod<uint16_t>(data + 4);
  if (version != kSketchFormatVersion) {
    return Status::InvalidArgument(
        "sketch blob: unsupported sketch format version " +
        std::to_string(version));
  }
  const uint8_t kind_byte = data[6];
  if (kind_byte < kMinSketchKind || kind_byte > kMaxSketchKind) {
    return Status::InvalidArgument("sketch blob: unknown sketch kind " +
                                   std::to_string(kind_byte));
  }
  const uint8_t flags = data[7];
  if (flags != 0) {
    return Status::InvalidArgument("sketch blob: unsupported flags " +
                                   std::to_string(flags));
  }
  if (ReadPod<uint64_t>(data + 8) != size) {
    return Status::InvalidArgument("sketch blob: length mismatch");
  }
  if (reinterpret_cast<uintptr_t>(data) % 8 != 0) {
    return Status::InvalidArgument("sketch blob: misaligned buffer");
  }
  if (Checksum64(data + 24, size - 24) != ReadPod<uint64_t>(data + 16)) {
    return Status::InvalidArgument("sketch blob: checksum mismatch");
  }
  // The version/kind/flags bytes sit outside the checksummed range (so a
  // version bump reads as a version error); the echo repeats them inside
  // it, closing the single-bit-corruption gap on the header itself.
  if (ReadPod<uint32_t>(data + 28) != HeaderEcho(kind_byte, flags)) {
    return Status::InvalidArgument("sketch blob: header echo mismatch");
  }
  const uint32_t section_count = ReadPod<uint32_t>(data + 24);
  const uint64_t table_end =
      kSketchHeaderBytes +
      static_cast<uint64_t>(section_count) * kSketchSectionEntryBytes;
  if (table_end > size) {
    return Status::InvalidArgument("sketch blob: bad section table");
  }
  std::vector<CompactSketch::Section> sections;
  std::vector<uint32_t> ids;  // duplicate-id check
  sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* entry =
        data + kSketchHeaderBytes + i * kSketchSectionEntryBytes;
    CompactSketch::Section section;
    section.id = ReadPod<uint32_t>(entry);
    const uint32_t type = ReadPod<uint32_t>(entry + 4);
    section.offset = ReadPod<uint64_t>(entry + 8);
    section.length = ReadPod<uint64_t>(entry + 16);
    if (type < 1 || type > 3) {
      return Status::InvalidArgument("sketch blob: bad section type " +
                                     std::to_string(type));
    }
    section.type = static_cast<SectionType>(type);
    if (section.offset < table_end || section.offset > size ||
        section.length > size - section.offset) {
      return Status::InvalidArgument(
          "sketch blob: bad section out of bounds");
    }
    if (section.type == SectionType::kWords &&
        (section.offset % 8 != 0 || section.length % 8 != 0)) {
      return Status::InvalidArgument(
          "sketch blob: bad section word alignment");
    }
    if (section.type == SectionType::kDense && section.offset % 8 != 4) {
      return Status::InvalidArgument(
          "sketch blob: bad section dense alignment");
    }
    for (uint32_t id : ids) {
      if (id == section.id) {
        return Status::InvalidArgument(
            "sketch blob: bad section duplicate id " +
            std::to_string(id));
      }
    }
    ids.push_back(section.id);
    sections.push_back(section);
  }
  return CompactSketch(data, size, static_cast<SketchKind>(kind_byte),
                       std::move(sections));
}

StatusOr<CompactSketch> CompactSketch::Wrap(const uint8_t* data,
                                            size_t size) {
  const bool telem = telemetry::Telemetry::Current()->enabled();
  if (!telem) return WrapImpl(data, size);
  const uint64_t t0 = telemetry::Telemetry::WallNowNs();
  StatusOr<CompactSketch> result = WrapImpl(data, size);
  telemetry::Observe("serde.deserialize_ns",
                     telemetry::Telemetry::WallNowNs() - t0);
  telemetry::Count("serde.blobs_deserialized");
  if (!result.ok()) telemetry::Count("serde.deserialize_failure");
  return result;
}

const CompactSketch::Section* CompactSketch::FindSection(uint32_t id) const {
  for (const Section& section : sections_) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

bool CompactSketch::HasSection(uint32_t id) const {
  return FindSection(id) != nullptr;
}

StatusOr<std::span<const uint8_t>> CompactSketch::SectionBytes(
    uint32_t id) const {
  const Section* section = FindSection(id);
  if (section == nullptr) {
    return Status::InvalidArgument("sketch blob: missing section " +
                                   std::to_string(id));
  }
  return std::span<const uint8_t>(data_ + section->offset, section->length);
}

StatusOr<std::span<const uint64_t>> CompactSketch::SectionWords(
    uint32_t id) const {
  const Section* section = FindSection(id);
  if (section == nullptr) {
    return Status::InvalidArgument("sketch blob: missing section " +
                                   std::to_string(id));
  }
  if (section->type != SectionType::kWords) {
    return Status::InvalidArgument("sketch blob: section " +
                                   std::to_string(id) + " is not words");
  }
  return std::span<const uint64_t>(
      reinterpret_cast<const uint64_t*>(data_ + section->offset),
      section->length / 8);
}

StatusOr<DenseView> CompactSketch::DenseSection(uint32_t id) const {
  const Section* section = FindSection(id);
  if (section == nullptr) {
    return Status::InvalidArgument("sketch blob: missing section " +
                                   std::to_string(id));
  }
  if (section->type != SectionType::kDense) {
    return Status::InvalidArgument("sketch blob: section " +
                                   std::to_string(id) + " is not dense");
  }
  const uint8_t* body = data_ + section->offset;
  if (section->length < kDenseBodyHeaderBytes ||
      std::memcmp(body, "DSMT", 4) != 0) {
    return Status::InvalidArgument(
        "sketch blob: dense section bad magic or truncated");
  }
  const uint64_t rows = ReadPod<uint64_t>(body + 4);
  const uint64_t cols = ReadPod<uint64_t>(body + 12);
  if (rows > kMaxRows || cols > kMaxCols) {
    return Status::InvalidArgument(
        "sketch blob: dense section implausible shape");
  }
  if (section->length != kDenseBodyHeaderBytes + rows * cols * 8) {
    return Status::InvalidArgument(
        "sketch blob: dense section length mismatch");
  }
  DenseView view;
  view.rows = rows;
  view.cols = cols;
  view.data =
      reinterpret_cast<const double*>(body + kDenseBodyHeaderBytes);
  return view;
}

StatusOr<Matrix> CompactSketch::DenseCopy(uint32_t id) const {
  DS_ASSIGN_OR_RETURN(DenseView view, DenseSection(id));
  Matrix out(view.rows, view.cols);
  if (view.rows * view.cols > 0) {
    std::memcpy(out.data(), view.data, view.rows * view.cols * 8);
  }
  return out;
}

namespace {

Status CheckKind(SketchKind got, SketchKind want) {
  if (got != want) {
    return Status::InvalidArgument(
        "sketch blob: kind mismatch (got " +
        std::to_string(static_cast<int>(got)) + ", want " +
        std::to_string(static_cast<int>(want)) + ")");
  }
  return Status::OK();
}

Status CheckParamCount(std::span<const uint64_t> params, size_t want) {
  if (params.size() != want) {
    return Status::InvalidArgument(
        "sketch blob: params section wrong length (got " +
        std::to_string(params.size()) + " words, want " +
        std::to_string(want) + ")");
  }
  return Status::OK();
}

}  // namespace

StatusOr<FdSketchState> CompactSketch::ToFdState() const {
  DS_RETURN_IF_ERROR(CheckKind(kind_, SketchKind::kFrequentDirections));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> params,
                      SectionWords(kSecParams));
  DS_RETURN_IF_ERROR(CheckParamCount(params, 5));
  FdSketchState state;
  state.dim = params[0];
  state.sketch_size = params[1];
  state.total_shrinkage = std::bit_cast<double>(params[2]);
  state.shrink_count = params[3];
  state.rows_seen = params[4];
  DS_ASSIGN_OR_RETURN(state.buffer, DenseCopy(kSecPrimaryMatrix));
  return state;
}

StatusOr<FastFdState> CompactSketch::ToFastFdState() const {
  DS_RETURN_IF_ERROR(CheckKind(kind_, SketchKind::kFastFrequentDirections));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> params,
                      SectionWords(kSecParams));
  DS_RETURN_IF_ERROR(CheckParamCount(params, 5));
  FastFdState state;
  state.dim = params[0];
  state.sketch_size = params[1];
  state.seed = params[2];
  state.total_shrinkage = std::bit_cast<double>(params[3]);
  state.shrink_count = params[4];
  DS_ASSIGN_OR_RETURN(state.buffer, DenseCopy(kSecPrimaryMatrix));
  return state;
}

StatusOr<SvsSketchState> CompactSketch::ToSvsState() const {
  DS_RETURN_IF_ERROR(CheckKind(kind_, SketchKind::kSvs));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> params,
                      SectionWords(kSecParams));
  DS_RETURN_IF_ERROR(CheckParamCount(params, 4));
  SvsSketchState state;
  state.candidates = params[0];
  state.sampled = params[1];
  state.expected_sampled = std::bit_cast<double>(params[2]);
  state.seed = params[3];
  DS_ASSIGN_OR_RETURN(state.sketch, DenseCopy(kSecPrimaryMatrix));
  return state;
}

StatusOr<AdaptiveSketchState> CompactSketch::ToAdaptiveState() const {
  DS_RETURN_IF_ERROR(CheckKind(kind_, SketchKind::kAdaptive));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> params,
                      SectionWords(kSecParams));
  DS_RETURN_IF_ERROR(CheckParamCount(params, 6));
  AdaptiveSketchState state;
  state.dim = params[0];
  state.eps = std::bit_cast<double>(params[1]);
  state.k = params[2];
  state.seed = params[3];
  state.finished = params[4] != 0;
  state.tail_mass = std::bit_cast<double>(params[5]);
  DS_ASSIGN_OR_RETURN(std::span<const uint8_t> nested,
                      SectionBytes(kSecNestedBlob));
  DS_ASSIGN_OR_RETURN(CompactSketch fd_blob,
                      CompactSketch::Wrap(nested.data(), nested.size()));
  DS_ASSIGN_OR_RETURN(state.fd, fd_blob.ToFdState());
  DS_ASSIGN_OR_RETURN(state.head, DenseCopy(kSecHeadMatrix));
  DS_ASSIGN_OR_RETURN(state.tail, DenseCopy(kSecTailMatrix));
  return state;
}

StatusOr<CountSketchState> CompactSketch::ToCountSketchState() const {
  DS_RETURN_IF_ERROR(CheckKind(kind_, SketchKind::kCountSketch));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> params,
                      SectionWords(kSecParams));
  DS_RETURN_IF_ERROR(CheckParamCount(params, 3));
  CountSketchState state;
  state.seed = params[2];
  DS_ASSIGN_OR_RETURN(state.compressed, DenseCopy(kSecPrimaryMatrix));
  if (state.compressed.rows() != params[0] ||
      state.compressed.cols() != params[1]) {
    return Status::InvalidArgument(
        "sketch blob: countsketch matrix shape disagrees with params");
  }
  return state;
}

StatusOr<SlidingWindowState> CompactSketch::ToSlidingWindowState() const {
  DS_RETURN_IF_ERROR(CheckKind(kind_, SketchKind::kSlidingWindow));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> params,
                      SectionWords(kSecParams));
  DS_RETURN_IF_ERROR(CheckParamCount(params, 8));
  SlidingWindowState state;
  state.dim = params[0];
  state.window = params[1];
  state.eps = std::bit_cast<double>(params[2]);
  state.block_rows = params[3];
  state.active_begin = params[4];
  state.rows_seen = params[5];
  state.max_row_norm = std::bit_cast<double>(params[6]);
  const uint64_t num_blocks = params[7];
  // Each block needs its own dense section, so a plausible count never
  // exceeds the (already size-bounded) section count.
  if (num_blocks > sections_.size()) {
    return Status::InvalidArgument(
        "sketch blob: sliding window block count implausible");
  }
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> index,
                      SectionWords(kSecBlockIndex));
  if (index.size() != 2 * num_blocks) {
    return Status::InvalidArgument(
        "sketch blob: sliding window block index wrong length");
  }
  DS_ASSIGN_OR_RETURN(std::span<const uint8_t> nested,
                      SectionBytes(kSecNestedBlob));
  DS_ASSIGN_OR_RETURN(CompactSketch active_blob,
                      CompactSketch::Wrap(nested.data(), nested.size()));
  DS_ASSIGN_OR_RETURN(state.active, active_blob.ToFdState());
  state.blocks.resize(num_blocks);
  for (uint64_t i = 0; i < num_blocks; ++i) {
    state.blocks[i].begin = index[2 * i];
    state.blocks[i].end = index[2 * i + 1];
    DS_ASSIGN_OR_RETURN(
        state.blocks[i].sketch,
        DenseCopy(kSecBlockBase + static_cast<uint32_t>(i)));
  }
  return state;
}

StatusOr<RowSamplingState> CompactSketch::ToRowSamplingState() const {
  DS_RETURN_IF_ERROR(CheckKind(kind_, SketchKind::kRowSampling));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> params,
                      SectionWords(kSecParams));
  DS_RETURN_IF_ERROR(CheckParamCount(params, 3));
  RowSamplingState state;
  state.dim = params[0];
  state.num_samples = params[1];
  state.total_mass = std::bit_cast<double>(params[2]);
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> rng,
                      SectionWords(kSecRngState));
  if (rng.size() != kRngStateWords) {
    return Status::InvalidArgument(
        "sketch blob: rng section wrong length");
  }
  for (size_t i = 0; i < 4; ++i) state.rng.s[i] = rng[i];
  state.rng.spare_gaussian = std::bit_cast<double>(rng[4]);
  state.rng.has_spare_gaussian = rng[5] != 0;
  DS_ASSIGN_OR_RETURN(state.reservoir, DenseCopy(kSecPrimaryMatrix));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> weights,
                      SectionWords(kSecWeights));
  state.weights.reserve(weights.size());
  for (uint64_t w : weights) {
    state.weights.push_back(std::bit_cast<double>(w));
  }
  DS_ASSIGN_OR_RETURN(std::span<const uint8_t> present,
                      SectionBytes(kSecPresence));
  state.present.assign(present.begin(), present.end());
  return state;
}

StatusOr<FrequentDirections> CompactSketch::ToFrequentDirections() const {
  DS_ASSIGN_OR_RETURN(FdSketchState state, ToFdState());
  return FrequentDirections::FromState(std::move(state));
}

StatusOr<AdaptiveLocalSketch> CompactSketch::ToAdaptiveLocalSketch() const {
  DS_ASSIGN_OR_RETURN(AdaptiveSketchState state, ToAdaptiveState());
  return AdaptiveLocalSketch::FromState(std::move(state));
}

StatusOr<CountSketchCompressor> CompactSketch::ToCountSketch() const {
  DS_ASSIGN_OR_RETURN(CountSketchState state, ToCountSketchState());
  return CountSketchCompressor::FromState(std::move(state));
}

StatusOr<SlidingWindowSketch> CompactSketch::ToSlidingWindow() const {
  DS_ASSIGN_OR_RETURN(SlidingWindowState state, ToSlidingWindowState());
  return SlidingWindowSketch::FromState(std::move(state));
}

StatusOr<RowSamplingSketch> CompactSketch::ToRowSampling() const {
  DS_ASSIGN_OR_RETURN(RowSamplingState state, ToRowSamplingState());
  return RowSamplingSketch::FromState(state);
}

std::vector<uint8_t> EncodeCoordinatorCheckpoint(
    const CoordinatorCheckpoint& checkpoint) {
  SerializeScope scope;
  DS_CHECK(checkpoint.done.size() == checkpoint.servers_total);
  uint64_t done_count = 0;
  for (uint8_t d : checkpoint.done) done_count += d != 0 ? 1 : 0;
  BlobWriter writer(SketchKind::kCoordinatorCheckpoint);
  writer.AddWords(kSecParams,
                  {checkpoint.protocol_id, checkpoint.servers_total,
                   done_count,
                   std::bit_cast<uint64_t>(checkpoint.global_scalar)});
  writer.AddBytes(kSecDoneBitmap, checkpoint.done.data(),
                  checkpoint.done.size());
  writer.AddBytes(kSecNestedBlob, checkpoint.sketch_blob.data(),
                  checkpoint.sketch_blob.size());
  writer.AddDense(kSecExtraMatrix, checkpoint.extra);
  return writer.Finish();
}

StatusOr<CoordinatorCheckpoint> DecodeCoordinatorCheckpoint(
    const uint8_t* data, size_t size) {
  DS_ASSIGN_OR_RETURN(CompactSketch compact,
                      CompactSketch::Wrap(data, size));
  DS_RETURN_IF_ERROR(
      CheckKind(compact.kind(), SketchKind::kCoordinatorCheckpoint));
  DS_ASSIGN_OR_RETURN(std::span<const uint64_t> params,
                      compact.SectionWords(kSecParams));
  DS_RETURN_IF_ERROR(CheckParamCount(params, 4));
  CoordinatorCheckpoint checkpoint;
  checkpoint.protocol_id = params[0];
  checkpoint.servers_total = params[1];
  const uint64_t done_count = params[2];
  checkpoint.global_scalar = std::bit_cast<double>(params[3]);
  DS_ASSIGN_OR_RETURN(std::span<const uint8_t> done,
                      compact.SectionBytes(kSecDoneBitmap));
  if (done.size() != checkpoint.servers_total) {
    return Status::InvalidArgument(
        "sketch blob: checkpoint done bitmap wrong length");
  }
  checkpoint.done.assign(done.begin(), done.end());
  uint64_t actual_done = 0;
  for (uint8_t d : checkpoint.done) actual_done += d != 0 ? 1 : 0;
  if (actual_done != done_count) {
    return Status::InvalidArgument(
        "sketch blob: checkpoint done count disagrees with bitmap");
  }
  DS_ASSIGN_OR_RETURN(std::span<const uint8_t> nested,
                      compact.SectionBytes(kSecNestedBlob));
  checkpoint.sketch_blob.assign(nested.begin(), nested.end());
  DS_ASSIGN_OR_RETURN(checkpoint.extra,
                      compact.DenseCopy(kSecExtraMatrix));
  return checkpoint;
}

}  // namespace wire
}  // namespace distsketch
