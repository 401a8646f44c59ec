// Unit tests for the core extensions: sketch serialization (VosSketchIo),
// sketch compatibility (VosSketch::IsCompatibleWith) and confidence
// intervals (EstimateWithConfidence). The batch queries are tested in
// query_engine_test.cc and query_planner_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "common/random.h"
#include "core/vos_estimator.h"
#include "core/vos_io.h"
#include "core/vos_sketch.h"
#include "stream/dataset.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

VosConfig TestConfig(uint32_t k = 512, uint64_t m = 1 << 14,
                     uint64_t seed = 11) {
  VosConfig config;
  config.k = k;
  config.m = m;
  config.seed = seed;
  return config;
}

/// A feasible random insertion-only workload.
std::vector<Element> RandomInsertions(UserId users, size_t count,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> elements;
  std::unordered_set<uint64_t> live;
  while (elements.size() < count) {
    const auto u = static_cast<UserId>(rng.NextBounded(users));
    const auto i = static_cast<ItemId>(rng.NextBounded(10000));
    if (live.insert(stream::EdgeKey(u, i)).second) {
      elements.push_back({u, i, Action::kInsert});
    }
  }
  return elements;
}

// ------------------------------------------------------------ VosSketchIo

TEST(VosSketchIoTest, SaveLoadRoundTripsBitForBit) {
  const std::string path = ::testing::TempDir() + "/vos_sketch_io.bin";
  VosSketch original(TestConfig(), 40);
  for (const Element& e : RandomInsertions(40, 600, 3)) original.Update(e);

  ASSERT_TRUE(VosSketchIo::Save(original, path).ok());
  auto loaded = VosSketchIo::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(loaded->array() == original.array());
  EXPECT_DOUBLE_EQ(loaded->beta(), original.beta());
  for (UserId u = 0; u < 40; ++u) {
    EXPECT_EQ(loaded->Cardinality(u), original.Cardinality(u));
  }
  // Loaded sketch remains usable: same estimates, updatable.
  EXPECT_TRUE(loaded->ExtractUserSketch(7) == original.ExtractUserSketch(7));
  loaded->Update({0, 99999, Action::kInsert});
  std::remove(path.c_str());
}

TEST(VosSketchIoTest, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_EQ(VosSketchIo::Load("/nonexistent/sketch.bin").status().code(),
            StatusCode::kIoError);

  const std::string path = ::testing::TempDir() + "/vos_corrupt.bin";
  std::ofstream(path, std::ios::binary) << "VOSSKTCHgarbage";
  EXPECT_EQ(VosSketchIo::Load(path).status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(VosSketchIoTest, LoadDetectsBitFlip) {
  const std::string path = ::testing::TempDir() + "/vos_bitflip.bin";
  VosSketch sketch(TestConfig(), 10);
  for (const Element& e : RandomInsertions(10, 100, 5)) sketch.Update(e);
  ASSERT_TRUE(VosSketchIo::Save(sketch, path).ok());

  // Flip one byte in the middle of the payload.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(64);
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(64);
  byte = static_cast<char>(byte ^ 0x40);
  file.write(&byte, 1);
  file.close();

  EXPECT_EQ(VosSketchIo::Load(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(VosSketchIoTest, LoadRejectsTruncation) {
  const std::string path = ::testing::TempDir() + "/vos_truncated.bin";
  VosSketch sketch(TestConfig(), 10);
  ASSERT_TRUE(VosSketchIo::Save(sketch, path).ok());
  // Truncate the file to half its size.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::vector<char> content(size / 2);
  in.read(content.data(), static_cast<std::streamsize>(content.size()));
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(content.data(), static_cast<std::streamsize>(content.size()));
  EXPECT_EQ(VosSketchIo::Load(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(VosSketchIoTest, LoadRejectsVersionsOutsideSupportedRange) {
  // Version 1, the layout without f_seed, is rejected like any other.
  for (const uint32_t version : {0u, 1u, VosSketchIo::kVersion + 1}) {
    const std::string path = ::testing::TempDir() + "/vos_sketch_v" +
                             std::to_string(version) + ".bin";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(VosSketchIo::kMagic, 8);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.close();
    const Status status = VosSketchIo::Load(path).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "version " << version;
    EXPECT_NE(status.message().find("unsupported version"), std::string::npos)
        << status;
    std::remove(path.c_str());
  }
}

TEST(VosSketchIoTest, LoadRejectsUnknownPsiKind) {
  // The psi byte comes from outside the program: only 0 (the seeded
  // mixer) names a ψ this build has.
  const std::string path = ::testing::TempDir() + "/vos_sketch_psi.bin";
  VosSketch sketch(TestConfig(), 10);
  for (const Element& e : RandomInsertions(10, 100, 5)) sketch.Update(e);
  ASSERT_TRUE(VosSketchIo::Save(sketch, path).ok());

  // magic | u32 version | u32 k | u64 m | u64 seed | u8 psi
  constexpr std::streamoff kPsiOffset = 8 + 4 + 4 + 8 + 8;
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  char psi = 0x7f;
  file.seekg(kPsiOffset);
  file.read(&psi, 1);
  ASSERT_EQ(psi, static_cast<char>(VosSketchIo::kPsiMixer));
  psi = 1;
  file.seekp(kPsiOffset);
  file.write(&psi, 1);
  file.close();

  const auto loaded = VosSketchIo::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("unknown psi kind"),
            std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

// --------------------------------------------------------- IsCompatibleWith

TEST(VosCompatibilityTest, CompatibilityChecks) {
  VosSketch a(TestConfig(512, 1 << 14, 1), 10);
  VosSketch same(TestConfig(512, 1 << 14, 1), 10);
  VosSketch diff_seed(TestConfig(512, 1 << 14, 2), 10);
  VosSketch diff_k(TestConfig(256, 1 << 14, 1), 10);
  VosSketch diff_users(TestConfig(512, 1 << 14, 1), 11);
  EXPECT_TRUE(a.IsCompatibleWith(same));
  EXPECT_FALSE(a.IsCompatibleWith(diff_seed));
  EXPECT_FALSE(a.IsCompatibleWith(diff_k));
  EXPECT_FALSE(a.IsCompatibleWith(diff_users));
}

// -------------------------------------------------- EstimateWithConfidence

TEST(ConfidenceIntervalTest, BandContainsPointEstimateAndOrdersCorrectly) {
  VosEstimator estimator(4096);
  const double alpha = estimator.ExpectedAlpha(200, 0.05);
  const auto interval =
      estimator.EstimateWithConfidence(500, 500, alpha, 0.05);
  EXPECT_LE(interval.lo, interval.common);
  EXPECT_GE(interval.hi, interval.common);
  EXPECT_GT(interval.sigma, 0.0);
  // Wider z, wider band.
  const auto wide =
      estimator.EstimateWithConfidence(500, 500, alpha, 0.05, 3.0);
  EXPECT_LE(wide.lo, interval.lo);
  EXPECT_GE(wide.hi, interval.hi);
}

TEST(ConfidenceIntervalTest, CoverageIsApproximatelyNominal) {
  // Simulate the §IV model; the 95% band should cover the true s in
  // roughly 95% of trials (delta-method + normal approximation: accept
  // [90%, 99%]).
  constexpr uint32_t k = 4096;
  constexpr double beta = 0.08;
  constexpr double n_items = 800;
  constexpr double n_delta = 400;
  constexpr double true_s = n_items - n_delta / 2;
  VosEstimator estimator(k);
  Rng rng(31);
  const double p_bit = estimator.ExpectedAlpha(n_delta, beta);
  int covered = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    size_t ones = 0;
    for (uint32_t j = 0; j < k; ++j) ones += rng.NextBernoulli(p_bit);
    const double alpha = static_cast<double>(ones) / k;
    const auto interval =
        estimator.EstimateWithConfidence(n_items, n_items, alpha, beta);
    covered += (interval.lo <= true_s && true_s <= interval.hi);
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GE(coverage, 0.90);
  EXPECT_LE(coverage, 0.995);
}

}  // namespace
}  // namespace vos::core
