// Parameter-matrix property tests: the exact-permutation (Feistel) mode
// across the min-wise baselines, and the "VOS-sharded" pipeline matrix
// (shards × ingest threads).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include "baselines/minhash.h"
#include "baselines/oph.h"
#include "harness/method_factory.h"
#include "stream/dataset.h"

namespace vos::baseline {
namespace {

using stream::Action;
using stream::ItemId;

constexpr uint64_t kItems = 100000;

/// Exact-permutation mode must agree statistically with mixer mode.
class FeistelModeTest : public ::testing::TestWithParam<HashMode> {};

TEST_P(FeistelModeTest, OphAccuracyHolds) {
  OphConfig config;
  config.k = 512;
  config.hash_mode = GetParam();
  config.seed = 21;
  // Feistel permutations need the real (smaller) item domain.
  const uint64_t domain = GetParam() == HashMode::kFeistel ? 4096 : kItems;
  Oph method(config, 2, domain);
  for (ItemId i = 0; i < 300; ++i) {
    method.Update({0, i, Action::kInsert});
    method.Update({1, i + 150, Action::kInsert});  // 150 of 450 shared
  }
  EXPECT_NEAR(method.EstimatePair(0, 1).jaccard, 150.0 / 450.0, 0.09);
}

TEST_P(FeistelModeTest, MinHashDeletionSemanticsIndependentOfMode) {
  MinHashConfig config;
  config.k = 64;
  config.hash_mode = GetParam();
  const uint64_t domain = GetParam() == HashMode::kFeistel ? 1024 : kItems;
  MinHash method(config, 1, domain);
  method.Update({0, 5, Action::kInsert});
  method.Update({0, 9, Action::kInsert});
  method.Update({0, 5, Action::kDelete});
  // Registers may be empty (if 5 was the min and 9 hadn't claimed it) or
  // hold item 9 — never the deleted item.
  for (uint32_t j = 0; j < config.k; ++j) {
    const MinRegister& reg = method.RegisterAt(0, j);
    if (reg.occupied()) {
      EXPECT_EQ(reg.item, 9u);
    }
  }
  method.Update({0, 9, Action::kDelete});
  for (uint32_t j = 0; j < config.k; ++j) {
    EXPECT_FALSE(method.RegisterAt(0, j).occupied());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FeistelModeTest,
                         ::testing::Values(HashMode::kMixer,
                                           HashMode::kFeistel),
                         [](const auto& info) {
                           return info.param == HashMode::kMixer
                                      ? "Mixer"
                                      : "Feistel";
                         });

}  // namespace
}  // namespace vos::baseline

namespace vos::harness {
namespace {

using core::PairEstimate;
using stream::Action;
using stream::Element;
using stream::UserId;

/// "VOS-sharded" across the (shards, ingest_threads) matrix: whatever the
/// pipeline mode, the method must land on the deterministic synchronous
/// single-routing state — same estimates as the (shards, 0) twin — and
/// track truth to sketch accuracy.
class ShardedModeMatrixTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, unsigned>> {
 protected:
  static std::unique_ptr<core::SimilarityMethod> Make(uint32_t shards,
                                                      unsigned threads) {
    MethodFactoryConfig config;
    config.base_k = 100;
    config.num_users = 48;
    config.num_items = 100000;
    config.seed = 53;
    config.vos_shards = shards;
    config.ingest_threads = threads;
    auto method = CreateMethod("VOS-sharded", config);
    VOS_CHECK(method.ok()) << method.status().ToString();
    return *std::move(method);
  }
};

TEST_P(ShardedModeMatrixTest, PipelineModeDoesNotChangeEstimates) {
  const auto [shards, threads] = GetParam();
  auto method = Make(shards, threads);
  auto reference = Make(shards, 0);  // synchronous routing: ground truth
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  for (const Element& e : stream->elements()) {
    if (e.user >= 48) continue;
    method->Update(e);
    reference->Update(e);
  }
  ASSERT_TRUE(method->FlushIngest().ok());
  ASSERT_TRUE(reference->FlushIngest().ok());
  for (UserId u = 0; u < 12; ++u) {
    for (UserId v = u + 1; v < 12; ++v) {
      const PairEstimate got = method->EstimatePair(u, v);
      const PairEstimate want = reference->EstimatePair(u, v);
      EXPECT_EQ(got.common, want.common)
          << "shards=" << shards << " threads=" << threads << " pair=("
          << u << "," << v << ")";
      EXPECT_EQ(got.jaccard, want.jaccard);
    }
  }
}

TEST_P(ShardedModeMatrixTest, TracksPlantedOverlap) {
  const auto [shards, threads] = GetParam();
  auto method = Make(shards, threads);
  // 200 shared of 300 items each: J = 200/400 = 0.5.
  for (uint32_t i = 0; i < 300; ++i) {
    method->Update({0, i, Action::kInsert});
    method->Update({1, i < 200 ? i : i + 50000, Action::kInsert});
  }
  ASSERT_TRUE(method->FlushIngest().ok());
  const PairEstimate est = method->EstimatePair(0, 1);
  EXPECT_NEAR(est.common, 200.0, 60.0)
      << "shards=" << shards << " threads=" << threads;
  EXPECT_NEAR(est.jaccard, 0.5, 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    ShardThreadMatrix, ShardedModeMatrixTest,
    ::testing::Combine(::testing::Values(1u, 4u), ::testing::Values(0u, 2u)),
    [](const auto& info) {
      std::string name = "s";
      name.append(std::to_string(std::get<0>(info.param)))
          .append("_t")
          .append(std::to_string(std::get<1>(info.param)));
      return name;
    });

}  // namespace
}  // namespace vos::harness
