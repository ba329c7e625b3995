#include "store/sketch_store.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../corruption_sweep.h"
#include "linalg/matrix.h"
#include "sketch/frequent_directions.h"
#include "wire/sketch_serde.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sketch_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<uint8_t> TestBlob(uint8_t fill, size_t size = 64) {
  return std::vector<uint8_t>(size, fill);
}

TEST(SketchStoreTest, PutGetRoundTrip) {
  auto store = SketchStore::Open(FreshDir("roundtrip"));
  ASSERT_TRUE(store.ok()) << store.status().message();
  const std::vector<uint8_t> blob = TestBlob(7);
  ASSERT_TRUE(store->Put("fd_main", blob).ok());
  EXPECT_TRUE(store->Contains("fd_main"));
  auto loaded = store->Get("fd_main");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(*loaded, blob);
}

TEST(SketchStoreTest, GetMissingIsNotFound) {
  auto store = SketchStore::Open(FreshDir("missing"));
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Contains("absent"));
  auto loaded = store->Get("absent");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SketchStoreTest, OverwriteReplacesBlob) {
  auto store = SketchStore::Open(FreshDir("overwrite"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("x", TestBlob(1)).ok());
  ASSERT_TRUE(store->Put("x", TestBlob(2, 128)).ok());
  auto loaded = store->Get("x");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, TestBlob(2, 128));
}

TEST(SketchStoreTest, ListReturnsSortedNamesAndDeleteRemoves) {
  auto store = SketchStore::Open(FreshDir("list"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("beta", TestBlob(1)).ok());
  ASSERT_TRUE(store->Put("alpha", TestBlob(2)).ok());
  ASSERT_TRUE(store->Put("gamma.v2", TestBlob(3)).ok());
  auto names = store->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"alpha", "beta", "gamma.v2"}));
  ASSERT_TRUE(store->Delete("beta").ok());
  EXPECT_FALSE(store->Contains("beta"));
  ASSERT_TRUE(store->Delete("beta").ok());  // idempotent
  names = store->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"alpha", "gamma.v2"}));
}

TEST(SketchStoreTest, InvalidNamesRejected) {
  auto store = SketchStore::Open(FreshDir("names"));
  ASSERT_TRUE(store.ok());
  for (const char* bad : {"", ".hidden", "a/b", "a\\b", "sp ace", "tab\t"}) {
    EXPECT_FALSE(SketchStore::ValidName(bad)) << bad;
    EXPECT_FALSE(store->Put(bad, TestBlob(1)).ok()) << bad;
  }
  for (const char* good : {"a", "fd-main.v1", "A_b-c.d", "0"}) {
    EXPECT_TRUE(SketchStore::ValidName(good)) << good;
  }
}

TEST(SketchStoreTest, OnDiskCorruptionDetectedOnGet) {
  const std::string dir = FreshDir("corrupt");
  auto store = SketchStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("victim", TestBlob(9, 256)).ok());
  // Flip one payload byte on disk.
  const std::string path = dir + "/victim.dss";
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekp(-1, std::ios::end);
  file.put(static_cast<char>(0xFF));
  file.close();
  auto loaded = store->Get("victim");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().message();
}

// Every truncation and every single-bit flip of an entry file, written
// back in its slot: Get() refuses it, or returns the blob that was put
// (the frame's routing fields are not checksummed). Never a crash or a
// different blob.
TEST(SketchStoreTest, CorruptionSweepOfEntryFile) {
  const std::string dir = FreshDir("sweep");
  auto store = SketchStore::Open(dir);
  ASSERT_TRUE(store.ok());
  FrequentDirections fd(6, 3);
  fd.AppendRows(GenerateGaussian(8, 6, 1.0, 3));
  const std::vector<uint8_t> blob = wire::SerializeSketchState(fd.ExportState());
  ASSERT_TRUE(store->Put("swept", blob).ok());
  const std::string path = dir + "/swept.dss";
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> entry((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(entry.empty());
  size_t refused = 0;
  auto check = [&](const std::vector<uint8_t>& bytes,
                   const std::string& what) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    auto loaded = store->Get("swept");
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
      ++refused;
      return;
    }
    EXPECT_EQ(*loaded, blob) << what;
  };
  testing::ForEachTruncation(entry, check);
  EXPECT_EQ(refused, entry.size());
  testing::ForEachBitFlip(entry, check);
  EXPECT_GT(refused, entry.size());
}

TEST(SketchStoreTest, RenamedFileDetectedByTagMismatch) {
  const std::string dir = FreshDir("renamed");
  auto store = SketchStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("original", TestBlob(5)).ok());
  std::filesystem::rename(dir + "/original.dss", dir + "/impostor.dss");
  auto loaded = store->Get("impostor");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("tag"), std::string::npos)
      << loaded.status().message();
}

TEST(SketchStoreTest, NoTempFilesLeftBehind) {
  const std::string dir = FreshDir("tmpfiles");
  auto store = SketchStore::Open(dir);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store->Put("entry" + std::to_string(i), TestBlob(i)).ok());
  }
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(e.path().extension(), ".dss") << e.path();
  }
  EXPECT_EQ(files, 8u);
}

TEST(SketchStoreTest, FdSketchSurvivesReopenAndMergesBitIdentically) {
  const Matrix a = GenerateLowRankPlusNoise({.rows = 60,
                                             .cols = 8,
                                             .rank = 2,
                                             .decay = 0.5,
                                             .top_singular_value = 8.0,
                                             .noise_stddev = 0.2,
                                             .seed = 11});
  // Uninterrupted: one FD over all rows.
  FrequentDirections reference(8, 4);
  for (size_t r = 0; r < a.rows(); ++r) reference.Append(a.Row(r));

  // Persisted: sketch the first half, checkpoint to the store, "restart"
  // by reopening the store in a new instance, reload, and finish.
  const std::string dir = FreshDir("reopen");
  {
    auto store = SketchStore::Open(dir);
    ASSERT_TRUE(store.ok());
    FrequentDirections first(8, 4);
    for (size_t r = 0; r < a.rows() / 2; ++r) first.Append(a.Row(r));
    ASSERT_TRUE(store->Put("halfway", wire::SerializeSketch(first)).ok());
  }
  auto reopened = SketchStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->Contains("halfway"));
  auto blob = reopened->Get("halfway");
  ASSERT_TRUE(blob.ok());
  auto compact = wire::CompactSketch::Wrap(blob->data(), blob->size());
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  auto resumed = compact->ToFrequentDirections();
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  for (size_t r = a.rows() / 2; r < a.rows(); ++r) {
    resumed->Append(a.Row(r));
  }
  const Matrix expected = reference.Sketch();
  const Matrix actual = resumed->Sketch();
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (size_t r = 0; r < actual.rows(); ++r) {
    for (size_t c = 0; c < actual.cols(); ++c) {
      uint64_t wa, wb;
      const double da = actual(r, c), db = expected(r, c);
      std::memcpy(&wa, &da, 8);
      std::memcpy(&wb, &db, 8);
      ASSERT_EQ(wa, wb) << "entry (" << r << ", " << c << ")";
    }
  }
}

}  // namespace
}  // namespace distsketch
