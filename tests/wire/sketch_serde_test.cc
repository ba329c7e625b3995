#include "wire/sketch_serde.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "sketch/adaptive_sketch.h"
#include "sketch/countsketch.h"
#include "sketch/frequent_directions.h"
#include "sketch/row_sampling.h"
#include "sketch/sliding_window.h"

namespace distsketch {
namespace wire {
namespace {

Matrix FilledMatrix(size_t rows, size_t cols, uint64_t salt) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<double>(r * cols + c + salt) * 0.0625 - 2.0;
    }
  }
  return m;
}

void ExpectMatrixBitsEq(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      uint64_t wa, wb;
      const double da = a(r, c), db = b(r, c);
      std::memcpy(&wa, &da, 8);
      std::memcpy(&wb, &db, 8);
      ASSERT_EQ(wa, wb) << "entry (" << r << ", " << c << ")";
    }
  }
}

FdSketchState MakeFdState() {
  FdSketchState state;
  state.dim = 6;
  state.sketch_size = 4;
  state.buffer = FilledMatrix(5, 6, 1);
  state.total_shrinkage = 3.5;
  state.shrink_count = 2;
  state.rows_seen = 37;
  return state;
}

TEST(SketchSerdeTest, FdRoundTripAndReserializeIdentical) {
  const FdSketchState state = MakeFdState();
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  EXPECT_EQ(compact->kind(), SketchKind::kFrequentDirections);
  auto restored = compact->ToFdState();
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->dim, state.dim);
  EXPECT_EQ(restored->sketch_size, state.sketch_size);
  EXPECT_EQ(restored->total_shrinkage, state.total_shrinkage);
  EXPECT_EQ(restored->shrink_count, state.shrink_count);
  EXPECT_EQ(restored->rows_seen, state.rows_seen);
  ExpectMatrixBitsEq(restored->buffer, state.buffer);
  // The format has a unique encoding per state: re-serializing the
  // round-tripped state must reproduce the input bytes exactly.
  EXPECT_EQ(SerializeSketchState(*restored), blob);
}

TEST(SketchSerdeTest, FastFdRoundTrip) {
  FastFdState state;
  state.dim = 5;
  state.sketch_size = 3;
  state.seed = 0xC0FFEE;
  state.buffer = FilledMatrix(4, 5, 2);
  state.total_shrinkage = 1.25;
  state.shrink_count = 1;
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  EXPECT_EQ(compact->kind(), SketchKind::kFastFrequentDirections);
  auto restored = compact->ToFastFdState();
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->seed, state.seed);
  EXPECT_EQ(restored->shrink_count, state.shrink_count);
  ExpectMatrixBitsEq(restored->buffer, state.buffer);
  EXPECT_EQ(SerializeSketchState(*restored), blob);
}

TEST(SketchSerdeTest, SvsRoundTrip) {
  SvsSketchState state;
  state.sketch = FilledMatrix(3, 4, 5);
  state.candidates = 12;
  state.sampled = 3;
  state.expected_sampled = 2.75;
  state.seed = 99;
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  auto restored = compact->ToSvsState();
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->candidates, state.candidates);
  EXPECT_EQ(restored->sampled, state.sampled);
  EXPECT_EQ(restored->expected_sampled, state.expected_sampled);
  EXPECT_EQ(restored->seed, state.seed);
  ExpectMatrixBitsEq(restored->sketch, state.sketch);
  EXPECT_EQ(SerializeSketchState(*restored), blob);
}

TEST(SketchSerdeTest, AdaptiveRoundTripWithNestedFdBlob) {
  AdaptiveSketchState state;
  state.dim = 6;
  state.eps = 0.25;
  state.k = 2;
  state.seed = 1234;
  state.fd = MakeFdState();
  state.finished = true;
  state.head = FilledMatrix(2, 6, 11);
  state.tail = FilledMatrix(3, 6, 13);
  state.tail_mass = 17.5;
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  auto restored = compact->ToAdaptiveState();
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->eps, state.eps);
  EXPECT_EQ(restored->k, state.k);
  EXPECT_EQ(restored->finished, state.finished);
  EXPECT_EQ(restored->tail_mass, state.tail_mass);
  EXPECT_EQ(restored->fd.rows_seen, state.fd.rows_seen);
  ExpectMatrixBitsEq(restored->fd.buffer, state.fd.buffer);
  ExpectMatrixBitsEq(restored->head, state.head);
  ExpectMatrixBitsEq(restored->tail, state.tail);
  EXPECT_EQ(SerializeSketchState(*restored), blob);
}

TEST(SketchSerdeTest, CountSketchRoundTrip) {
  CountSketchState state;
  state.seed = 777;
  state.compressed = FilledMatrix(4, 5, 17);
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  auto restored = compact->ToCountSketchState();
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->seed, state.seed);
  ExpectMatrixBitsEq(restored->compressed, state.compressed);
  EXPECT_EQ(SerializeSketchState(*restored), blob);
}

TEST(SketchSerdeTest, SlidingWindowRoundTripWithBlocks) {
  SlidingWindowState state;
  state.dim = 4;
  state.window = 16;
  state.eps = 0.5;
  state.block_rows = 4;
  SlidingWindowBlockState b0{FilledMatrix(2, 4, 19), 0, 4};
  SlidingWindowBlockState b1{FilledMatrix(3, 4, 23), 4, 8};
  state.blocks = {b0, b1};
  state.active.dim = 4;
  state.active.sketch_size = 4;
  state.active.buffer = FilledMatrix(3, 4, 29);
  state.active.rows_seen = 3;
  state.active_begin = 8;
  state.rows_seen = 11;
  state.max_row_norm = 6.5;
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  auto restored = compact->ToSlidingWindowState();
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ASSERT_EQ(restored->blocks.size(), 2u);
  EXPECT_EQ(restored->blocks[0].begin, 0u);
  EXPECT_EQ(restored->blocks[1].end, 8u);
  ExpectMatrixBitsEq(restored->blocks[1].sketch, b1.sketch);
  ExpectMatrixBitsEq(restored->active.buffer, state.active.buffer);
  EXPECT_EQ(restored->max_row_norm, state.max_row_norm);
  EXPECT_EQ(SerializeSketchState(*restored), blob);
}

TEST(SketchSerdeTest, RowSamplingRoundTripRestoresRngMidstream) {
  RowSamplingState state;
  state.dim = 5;
  state.num_samples = 3;
  Rng rng(4242);
  rng.NextDouble();
  rng.NextDouble();
  state.rng = rng.SaveState();
  state.reservoir = FilledMatrix(3, 5, 31);
  state.present = {1, 0, 1};
  for (size_t c = 0; c < 5; ++c) state.reservoir(1, c) = 0.0;
  state.weights = {2.25, 0.0, 4.5};
  state.total_mass = 10.75;
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  auto restored = compact->ToRowSamplingState();
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->rng.s, state.rng.s);
  EXPECT_EQ(restored->present, state.present);
  EXPECT_EQ(restored->weights, state.weights);
  EXPECT_EQ(restored->total_mass, state.total_mass);
  // The restored RNG continues exactly where the saved one left off.
  Rng continued = Rng::FromState(restored->rng);
  EXPECT_EQ(continued.NextUint64(), rng.NextUint64());
  EXPECT_EQ(SerializeSketchState(*restored), blob);
}

TEST(SketchSerdeTest, CoordinatorCheckpointRoundTrip) {
  CoordinatorCheckpoint checkpoint;
  checkpoint.protocol_id = 2;
  checkpoint.servers_total = 4;
  checkpoint.done = {1, 0, 1, 0};
  checkpoint.global_scalar = 42.5;
  checkpoint.sketch_blob = SerializeSketchState(MakeFdState());
  checkpoint.extra = FilledMatrix(2, 4, 37);
  const std::vector<uint8_t> blob = EncodeCoordinatorCheckpoint(checkpoint);
  auto restored = DecodeCoordinatorCheckpoint(blob.data(), blob.size());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->protocol_id, checkpoint.protocol_id);
  EXPECT_EQ(restored->servers_total, checkpoint.servers_total);
  EXPECT_EQ(restored->done, checkpoint.done);
  EXPECT_EQ(restored->global_scalar, checkpoint.global_scalar);
  EXPECT_EQ(restored->sketch_blob, checkpoint.sketch_blob);
  ExpectMatrixBitsEq(restored->extra, checkpoint.extra);
  EXPECT_EQ(EncodeCoordinatorCheckpoint(*restored), blob);
}

TEST(SketchSerdeTest, DenseSectionIsZeroCopy) {
  const FdSketchState state = MakeFdState();
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok());
  auto view = compact->DenseSection(kSecPrimaryMatrix);
  ASSERT_TRUE(view.ok()) << view.status().message();
  EXPECT_EQ(view->rows, 5u);
  EXPECT_EQ(view->cols, 6u);
  // The view's entries point into the wrapped buffer — no copy.
  const uint8_t* entries = reinterpret_cast<const uint8_t*>(view->data);
  EXPECT_GE(entries, blob.data());
  EXPECT_LE(entries + view->rows * view->cols * 8, blob.data() + blob.size());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view->data) % 8, 0u);
  EXPECT_EQ(view->data[0], state.buffer(0, 0));
}

TEST(SketchSerdeTest, MisalignedBufferRejected) {
  const std::vector<uint8_t> blob = SerializeSketchState(MakeFdState());
  std::vector<uint8_t> shifted(blob.size() + 1);
  std::memcpy(shifted.data() + 1, blob.data(), blob.size());
  auto compact = CompactSketch::Wrap(shifted.data() + 1, blob.size());
  ASSERT_FALSE(compact.ok());
  EXPECT_NE(compact.status().message().find("misaligned buffer"),
            std::string::npos);
}

TEST(SketchSerdeTest, KindMismatchRejectedOnConversion) {
  CountSketchState state;
  state.seed = 7;
  state.compressed = FilledMatrix(2, 3, 1);
  const std::vector<uint8_t> blob = SerializeSketchState(state);
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_TRUE(compact.ok());
  EXPECT_FALSE(compact->ToFdState().ok());
  EXPECT_FALSE(compact->ToSvsState().ok());
  EXPECT_TRUE(compact->ToCountSketchState().ok());
}

TEST(SketchSerdeTest, LiveFdSerializeRestoreContinueBitIdentical) {
  const Matrix rows = FilledMatrix(40, 6, 3);
  // Uninterrupted reference run.
  FrequentDirections reference(6, 4);
  for (size_t r = 0; r < rows.rows(); ++r) reference.Append(rows.Row(r));

  // Interrupted run: serialize at several cut points, wrap, convert back
  // to update form, continue with the remaining rows.
  for (size_t cut : {size_t{0}, size_t{7}, size_t{19}, size_t{40}}) {
    FrequentDirections first(6, 4);
    for (size_t r = 0; r < cut; ++r) first.Append(rows.Row(r));
    const std::vector<uint8_t> blob = SerializeSketch(first);
    auto compact = CompactSketch::Wrap(blob.data(), blob.size());
    ASSERT_TRUE(compact.ok()) << compact.status().message();
    auto second = compact->ToFrequentDirections();
    ASSERT_TRUE(second.ok()) << second.status().message();
    for (size_t r = cut; r < rows.rows(); ++r) second->Append(rows.Row(r));
    ExpectMatrixBitsEq(second->Sketch(), reference.Sketch());
  }
}

}  // namespace
}  // namespace wire
}  // namespace distsketch
