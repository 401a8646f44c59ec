// Unit tests for the core extensions: sketch serialization (VosSketchIo),
// distributed merge (VosSketch::MergeFrom), confidence intervals
// (EstimateWithConfidence), and VosDrift. The batch queries are tested
// in query_engine_test.cc and query_planner_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "common/random.h"
#include "core/vos_drift.h"
#include "core/vos_io.h"
#include "core/vos_method.h"
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

/// Independent re-implementation of the serialized format for the legacy
/// v1 layout (no f_seed field), byte-for-byte per the header comment in
/// core/vos_io.h — deliberately NOT sharing code with Save, so this test
/// pins the on-disk format itself.
void WriteV1File(const VosSketch& sketch, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto write_pod = [&out](const auto& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  out.write(VosSketchIo::kMagic, 8);
  write_pod(uint32_t{1});  // the legacy version
  write_pod(sketch.config().k);
  write_pod(sketch.config().m);
  write_pod(sketch.config().seed);
  write_pod(static_cast<uint8_t>(sketch.config().psi_kind));
  // v1 header ends here: no f_seed field.
  const std::vector<uint64_t>& words = sketch.array().words();
  std::vector<uint32_t> cards(sketch.num_users());
  for (UserId u = 0; u < sketch.num_users(); ++u) {
    cards[u] = sketch.Cardinality(u);
  }
  write_pod(static_cast<uint32_t>(cards.size()));
  write_pod(static_cast<uint64_t>(words.size()));
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
  out.write(reinterpret_cast<const char*>(cards.data()),
            static_cast<std::streamsize>(cards.size() * sizeof(uint32_t)));
  uint64_t checksum = 0x5b5e1ab1eULL;
  uint64_t index = 0;
  for (uint64_t w : words) checksum ^= hash::Hash64(w, ++index);
  for (uint32_t c : cards) checksum ^= hash::Hash64(c, ++index);
  write_pod(checksum);
}

TEST(VosSketchIoTest, LoadReadsLegacyV1FilesWithDefaultFSeed) {
  // A v1 sketch predates VosConfig::f_seed, so it was necessarily built
  // with the legacy default family (f_seed == 0 ⇒ derived from seed).
  // Loading one must restore that exact family, not reject the file.
  const std::string path = ::testing::TempDir() + "/vos_sketch_v1.bin";
  VosSketch original(TestConfig(), 40);
  for (const Element& e : RandomInsertions(40, 600, 3)) original.Update(e);

  WriteV1File(original, path);
  auto loaded = VosSketchIo::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(loaded->array() == original.array());
  EXPECT_TRUE(loaded->IsCompatibleWith(original))
      << "v1 load must re-derive the legacy default f family";
  for (UserId u = 0; u < 40; ++u) {
    EXPECT_EQ(loaded->Cardinality(u), original.Cardinality(u));
  }
  // Digests reconstruct through the same f cells — the property a wrong
  // f seed would break even with an identical array.
  EXPECT_TRUE(loaded->ExtractUserSketch(7) == original.ExtractUserSketch(7));

  // The write format stays v2: saving the loaded sketch and loading it
  // back round-trips through the current format bit-for-bit.
  const std::string resaved = ::testing::TempDir() + "/vos_sketch_v1_re.bin";
  ASSERT_TRUE(VosSketchIo::Save(*loaded, resaved).ok());
  auto reloaded = VosSketchIo::Load(resaved);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded->array() == original.array());
  EXPECT_TRUE(reloaded->IsCompatibleWith(original));
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(VosSketchIoTest, LoadRejectsVersionsOutsideSupportedRange) {
  for (const uint32_t version : {0u, VosSketchIo::kVersion + 1}) {
    const std::string path = ::testing::TempDir() + "/vos_sketch_v" +
                             std::to_string(version) + ".bin";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(VosSketchIo::kMagic, 8);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.close();
    EXPECT_EQ(VosSketchIo::Load(path).status().code(),
              StatusCode::kCorruption)
        << "version " << version;
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------- MergeFrom

TEST(VosMergeTest, UserPartitionedShardsMergeToMonolithicSketch) {
  const VosConfig config = TestConfig();
  VosSketch monolithic(config, 60);
  VosSketch shard_a(config, 60);
  VosSketch shard_b(config, 60);

  auto elements = RandomInsertions(60, 900, 7);
  // Add some deletions to exercise the fully dynamic path.
  for (size_t i = 0; i < 150; ++i) {
    Element del = elements[i];
    del.action = Action::kDelete;
    elements.push_back(del);
  }
  for (const Element& e : elements) {
    monolithic.Update(e);
    // Partition by user parity.
    (e.user % 2 == 0 ? shard_a : shard_b).Update(e);
  }
  shard_a.MergeFrom(shard_b);

  EXPECT_TRUE(shard_a.array() == monolithic.array());
  for (UserId u = 0; u < 60; ++u) {
    EXPECT_EQ(shard_a.Cardinality(u), monolithic.Cardinality(u));
  }
  EXPECT_DOUBLE_EQ(shard_a.beta(), monolithic.beta());
}

TEST(VosMergeTest, CompatibilityChecks) {
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

TEST(VosMergeTest, MergeIsCommutativeOnArrays) {
  const VosConfig config = TestConfig();
  VosSketch ab(config, 20), ba(config, 20);
  VosSketch a(config, 20), b(config, 20);
  for (const Element& e : RandomInsertions(20, 200, 9)) a.Update(e);
  for (const Element& e : RandomInsertions(20, 200, 10)) b.Update(e);
  // NOTE: the two shards here overlap in (user, item) pairs, so the merged
  // *cardinalities* are not meaningful set sizes; the array algebra is
  // still commutative, which is what this test pins.
  ab = a;
  ab.MergeFrom(b);
  ba = b;
  ba.MergeFrom(a);
  EXPECT_TRUE(ab.array() == ba.array());
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

// ------------------------------------------------------------------ VosDrift

TEST(VosDriftTest, UnchangedUserHasZeroDriftFullStability) {
  const VosConfig config = TestConfig(2048, 1 << 16, 33);
  VosSketch before(config, 10);
  for (ItemId i = 0; i < 100; ++i) before.Update({3, i, Action::kInsert});
  VosSketch after = before;  // identical snapshot

  VosDrift drift(before, after);
  EXPECT_DOUBLE_EQ(drift.EstimateDrift(3), 0.0);
  EXPECT_DOUBLE_EQ(drift.EstimateStability(3), 1.0);
  EXPECT_DOUBLE_EQ(drift.delta_beta(), 0.0);
}

TEST(VosDriftTest, DetectsKnownChurn) {
  const VosConfig config = TestConfig(4096, 1 << 18, 35);
  VosSketch before(config, 10);
  for (ItemId i = 0; i < 200; ++i) before.Update({3, i, Action::kInsert});

  VosSketch after = before;
  // User 3 churns: drops 50 items, adds 50 new → |Δ| = 100.
  for (ItemId i = 0; i < 50; ++i) after.Update({3, i, Action::kDelete});
  for (ItemId i = 0; i < 50; ++i) {
    after.Update({3, 10000 + i, Action::kInsert});
  }
  // Background churn by other users (contaminates the delta array).
  for (UserId u = 4; u < 10; ++u) {
    for (ItemId i = 0; i < 100; ++i) {
      after.Update({u, 20000 + u * 1000 + i, Action::kInsert});
    }
  }

  VosDrift drift(before, after);
  EXPECT_NEAR(drift.EstimateDrift(3), 100.0, 15.0);
  // Stability: s = (200+200-100)/2 = 150, J = 150/250 = 0.6.
  EXPECT_NEAR(drift.EstimateStability(3), 0.6, 0.08);
  // An untouched user stays stable despite others' churn.
  EXPECT_LT(drift.EstimateDrift(2), 12.0);
}

TEST(VosDriftTest, DoubleToggleCancels) {
  const VosConfig config = TestConfig(1024, 1 << 14, 37);
  VosSketch before(config, 2);
  for (ItemId i = 0; i < 60; ++i) before.Update({0, i, Action::kInsert});
  VosSketch after = before;
  // Unsubscribe then resubscribe the same items: net drift 0.
  for (ItemId i = 0; i < 30; ++i) after.Update({0, i, Action::kDelete});
  for (ItemId i = 0; i < 30; ++i) after.Update({0, i, Action::kInsert});
  VosDrift drift(before, after);
  EXPECT_DOUBLE_EQ(drift.EstimateDrift(0), 0.0);
  EXPECT_DOUBLE_EQ(drift.EstimateStability(0), 1.0);
}

}  // namespace
}  // namespace vos::core
