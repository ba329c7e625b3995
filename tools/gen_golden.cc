// Emits the golden binaries that tests/wire/golden_compat_test.cc
// replays every CI run. Usage:
//
//   gen_golden <outdir>
//
// writes one file per artifact plus manifest.txt, whose lines are
//
//   <file> <kind> <bytes> <checksum-16-hex>
//
// The version-1 wire frame is frozen: EncodeFrame writes version 2 now,
// so this tool cannot produce v1 frame bytes. It reads
// <outdir>/frame_local_sketch.frame (copy it from tests/golden/ when
// <outdir> is elsewhere) for its manifest line and never rewrites it;
// frame_local_sketch_v2.frame is the same frame in version 2.
//
// Every value below is dyadic (exactly representable in binary64) and
// every state is built synthetically — no eigensolves, no Gaussians —
// so the emitted bytes are identical on any conforming platform. The
// committed goldens under tests/golden/ freeze their formats: regenerating
// must reproduce them byte-for-byte, and any diff is a wire break.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/matrix_io.h"
#include "linalg/matrix.h"
#include "sketch/quantizer.h"
#include "wire/checksum.h"
#include "wire/codec.h"
#include "wire/frame.h"
#include "wire/sketch_serde.h"

namespace distsketch {
namespace {

// Deterministic dyadic fill: entry (r, c) = (r * cols + c + salt) / 16 - 2.
Matrix DyadicMatrix(size_t rows, size_t cols, uint64_t salt) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<double>(r * cols + c + salt) * 0.0625 - 2.0;
    }
  }
  return m;
}

FdSketchState GoldenFdState() {
  FdSketchState state;
  state.dim = 6;
  state.sketch_size = 4;
  state.buffer = DyadicMatrix(5, 6, 1);
  state.total_shrinkage = 3.5;
  state.shrink_count = 2;
  state.rows_seen = 37;
  return state;
}

struct Artifact {
  std::string file;
  std::string kind;
  std::vector<uint8_t> bytes;
  // Read from <outdir>, listed in the manifest, never written.
  bool frozen = false;
};

Status Run(const std::string& outdir) {
  std::vector<Artifact> artifacts;

  artifacts.push_back(
      {"dense_3x5.payload", "dense_payload",
       wire::EncodeDensePayload(DyadicMatrix(3, 5, 0))});
  artifacts.push_back({"dense_0x4.payload", "dense_payload",
                       wire::EncodeDensePayload(Matrix(0, 4))});

  {
    DS_ASSIGN_OR_RETURN(QuantizeResult q,
                        QuantizeMatrix(DyadicMatrix(4, 4, 3), 1.0 / 1024.0));
    DS_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                        wire::EncodeQuantizedPayload(q));
    artifacts.push_back(
        {"quant_4x4_b" + std::to_string(q.bits_per_entry) + ".payload",
         "quantized_payload", std::move(payload)});
  }

  {
    const std::string v1_path = outdir + "/frame_local_sketch.frame";
    StatusOr<std::vector<uint8_t>> v1 = ReadFileBytes(v1_path);
    if (!v1.ok()) {
      return Status::FailedPrecondition(
          "the frozen v1 frame " + v1_path + " is missing (" +
          std::string(v1.status().message()) +
          "); copy tests/golden/frame_local_sketch.frame there first");
    }
    artifacts.push_back(
        {"frame_local_sketch.frame", "frame", std::move(*v1), true});
    wire::Frame frame;
    frame.tag = "local_sketch";
    frame.from = 3;
    frame.to = -1;
    frame.attempt = 1;
    frame.payload = wire::EncodeDensePayload(DyadicMatrix(2, 3, 7));
    artifacts.push_back(
        {"frame_local_sketch_v2.frame", "frame", wire::EncodeFrame(frame)});
  }

  artifacts.push_back({"fd_state.sketch", "frequent_directions",
                       wire::SerializeSketchState(GoldenFdState())});

  {
    FastFdState state;
    state.dim = 5;
    state.sketch_size = 3;
    state.seed = 0xC0FFEE;
    state.buffer = DyadicMatrix(4, 5, 2);
    state.total_shrinkage = 1.25;
    state.shrink_count = 1;
    artifacts.push_back({"fast_fd_state.sketch", "fast_frequent_directions",
                         wire::SerializeSketchState(state)});
  }

  {
    wire::SvsSketchState state;
    state.sketch = DyadicMatrix(3, 4, 5);
    state.candidates = 12;
    state.sampled = 3;
    state.expected_sampled = 2.75;
    state.seed = 99;
    artifacts.push_back(
        {"svs_state.sketch", "svs", wire::SerializeSketchState(state)});
  }

  {
    AdaptiveSketchState state;
    state.dim = 6;
    state.eps = 0.25;
    state.k = 2;
    state.seed = 1234;
    state.fd = GoldenFdState();
    state.finished = true;
    state.head = DyadicMatrix(2, 6, 11);
    state.tail = DyadicMatrix(3, 6, 13);
    state.tail_mass = 17.5;
    artifacts.push_back(
        {"adaptive_state.sketch", "adaptive", wire::SerializeSketchState(state)});
  }

  {
    CountSketchState state;
    state.seed = 777;
    state.compressed = DyadicMatrix(4, 5, 17);
    artifacts.push_back({"countsketch_state.sketch", "countsketch",
                         wire::SerializeSketchState(state)});
  }

  {
    SlidingWindowState state;
    state.dim = 4;
    state.window = 16;
    state.eps = 0.5;
    state.block_rows = 4;
    SlidingWindowBlockState b0;
    b0.sketch = DyadicMatrix(2, 4, 19);
    b0.begin = 0;
    b0.end = 4;
    SlidingWindowBlockState b1;
    b1.sketch = DyadicMatrix(3, 4, 23);
    b1.begin = 4;
    b1.end = 8;
    state.blocks = {b0, b1};
    state.active.dim = 4;
    state.active.sketch_size = 4;
    state.active.buffer = DyadicMatrix(3, 4, 29);
    state.active.rows_seen = 3;
    state.active_begin = 8;
    state.rows_seen = 11;
    state.max_row_norm = 6.5;
    artifacts.push_back({"sliding_window_state.sketch", "sliding_window",
                         wire::SerializeSketchState(state)});
  }

  {
    RowSamplingState state;
    state.dim = 5;
    state.num_samples = 3;
    state.rng.s = {0x123456789ABCDEF0ull, 0x0FEDCBA987654321ull,
                   0xDEADBEEFCAFEF00Dull, 0x1111111122222222ull};
    state.rng.spare_gaussian = 0.5;
    state.rng.has_spare_gaussian = true;
    state.reservoir = DyadicMatrix(3, 5, 31);
    state.present = {1, 0, 1};
    for (size_t c = 0; c < 5; ++c) state.reservoir(1, c) = 0.0;
    state.weights = {2.25, 0.0, 4.5};
    state.total_mass = 10.75;
    artifacts.push_back({"row_sampling_state.sketch", "row_sampling",
                         wire::SerializeSketchState(state)});
  }

  {
    wire::CoordinatorCheckpoint checkpoint;
    checkpoint.protocol_id = 1;
    checkpoint.servers_total = 4;
    checkpoint.done = {1, 1, 0, 0};
    checkpoint.global_scalar = 42.5;
    checkpoint.sketch_blob = wire::SerializeSketchState(GoldenFdState());
    checkpoint.extra = DyadicMatrix(2, 4, 37);
    artifacts.push_back({"checkpoint_fd.sketch", "coordinator_checkpoint",
                         wire::EncodeCoordinatorCheckpoint(checkpoint)});
  }

  std::string manifest;
  for (const Artifact& a : artifacts) {
    if (!a.frozen) {
      DS_RETURN_IF_ERROR(WriteFileAtomic(outdir + "/" + a.file,
                                         a.bytes.data(), a.bytes.size()));
    }
    char line[256];
    std::snprintf(line, sizeof(line), "%s %s %zu %016llx\n", a.file.c_str(),
                  a.kind.c_str(), a.bytes.size(),
                  static_cast<unsigned long long>(
                      Checksum64(a.bytes.data(), a.bytes.size())));
    manifest += line;
  }
  DS_RETURN_IF_ERROR(WriteFileAtomic(
      outdir + "/manifest.txt",
      reinterpret_cast<const uint8_t*>(manifest.data()), manifest.size()));
  std::printf("wrote %zu artifacts + manifest.txt to %s (frozen ones kept)\n",
              artifacts.size(), outdir.c_str());
  return Status::OK();
}

}  // namespace
}  // namespace distsketch

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <outdir>\n", argv[0]);
    return 2;
  }
  distsketch::Status status = distsketch::Run(argv[1]);
  if (!status.ok()) {
    std::fprintf(stderr, "gen_golden: %s\n",
                 std::string(status.message()).c_str());
    return 1;
  }
  return 0;
}
