// Cross-method conformance suite: every SimilarityMethod the factory can
// build must satisfy the same behavioural contract. Parameterized over all
// registered method names — so adding a method to the factory
// automatically subjects it to this suite — plus a dedicated
// "VOS-sharded" configuration matrix (shards × ingest threads), so the
// sharded engine honours the contract in every pipeline mode, not just
// the factory default. Every sharded case caches through the planner's
// incremental shard indexes, its only PrepareQuery cache.

#include <gtest/gtest.h>

#include <memory>

#include "harness/method_factory.h"
#include "stream/dataset.h"

namespace vos::harness {
namespace {

using core::PairEstimate;
using core::SimilarityMethod;
using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

MethodFactoryConfig SmallFactory() {
  MethodFactoryConfig config;
  config.base_k = 64;
  config.num_users = 64;
  config.num_items = 100000;
  config.seed = 31;
  return config;
}

/// One conformance case: a factory method name plus the factory knobs it
/// runs under (only "VOS-sharded" varies them).
struct MethodCase {
  std::string name;
  uint32_t vos_shards = 4;
  unsigned ingest_threads = 0;
  std::string label;  ///< gtest-safe test-name suffix
};

std::vector<MethodCase> DefaultCases() {
  std::vector<MethodCase> cases;
  for (const std::string& name : AllMethods()) {
    MethodCase c;
    c.name = name;
    c.label = name;
    for (char& ch : c.label) {
      if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// The sharded contract matrix: shards ∈ {1, 4} × ingest_threads ∈ {0, 2}.
std::vector<MethodCase> ShardedMatrixCases() {
  std::vector<MethodCase> cases;
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned threads : {0u, 2u}) {
      MethodCase c;
      c.name = "VOS-sharded";
      c.vos_shards = shards;
      c.ingest_threads = threads;
      c.label = "VOS_sharded_s" + std::to_string(shards) + "_t" +
                std::to_string(threads);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

class MethodConformanceTest : public ::testing::TestWithParam<MethodCase> {
 protected:
  std::unique_ptr<SimilarityMethod> Make() {
    MethodFactoryConfig config = SmallFactory();
    config.vos_shards = GetParam().vos_shards;
    config.ingest_threads = GetParam().ingest_threads;
    auto method = CreateMethod(GetParam().name, config);
    VOS_CHECK(method.ok()) << method.status().ToString();
    return *std::move(method);
  }
};

TEST_P(MethodConformanceTest, NameIsNonEmptyAndStable) {
  auto method = Make();
  EXPECT_FALSE(method->Name().empty());
  EXPECT_EQ(method->Name(), Make()->Name());
}

TEST_P(MethodConformanceTest, MemoryIsPositiveAndUpdateIndependent) {
  auto method = Make();
  const size_t before = method->MemoryBits();
  EXPECT_GT(before, 0u);
  for (ItemId i = 0; i < 500; ++i) {
    method->Update({static_cast<UserId>(i % 8), i, Action::kInsert});
  }
  ASSERT_TRUE(method->FlushIngest().ok());
  EXPECT_EQ(method->MemoryBits(), before)
      << "sketches must be fixed-size (that is the point)";
}

TEST_P(MethodConformanceTest, EmptyUsersEstimateZero) {
  auto method = Make();
  const PairEstimate est = method->EstimatePair(0, 1);
  EXPECT_DOUBLE_EQ(est.common, 0.0);
  EXPECT_DOUBLE_EQ(est.jaccard, 0.0);
}

TEST_P(MethodConformanceTest, IdenticalLargeSetsScoreHigh) {
  // RP is excluded: its per-slot match probability is s/(n_u·n_v) ≈ 0.25%
  // here, so a single instance legitimately estimates 0 (it is unbiased
  // only on average — covered by RandomPairingTest.EstimateIsUnbiased...).
  if (GetParam().name == "RP") GTEST_SKIP() << "RP is high-variance by design";
  auto method = Make();
  for (ItemId i = 0; i < 400; ++i) {
    method->Update({0, i, Action::kInsert});
    method->Update({1, i, Action::kInsert});
  }
  ASSERT_TRUE(method->FlushIngest().ok());
  const PairEstimate est = method->EstimatePair(0, 1);
  EXPECT_GT(est.jaccard, 0.8);
  EXPECT_GT(est.common, 256.0);
}

TEST_P(MethodConformanceTest, DisjointLargeSetsScoreLow) {
  auto method = Make();
  for (ItemId i = 0; i < 400; ++i) {
    method->Update({0, i, Action::kInsert});
    method->Update({1, 50000 + i, Action::kInsert});
  }
  ASSERT_TRUE(method->FlushIngest().ok());
  const PairEstimate est = method->EstimatePair(0, 1);
  EXPECT_LT(est.jaccard, 0.2);
  EXPECT_LT(est.common, 80.0);
}

TEST_P(MethodConformanceTest, EstimatesStayInFeasibleRange) {
  // Clamping is on by default: whatever the stream, common ∈ [0, min(n_u,
  // n_v)] and jaccard ∈ [0, 1].
  auto method = Make();
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  std::vector<uint32_t> cards(64, 0);
  for (const Element& e : stream->elements()) {
    if (e.user >= 64) continue;
    method->Update(e);
    if (e.action == Action::kInsert) ++cards[e.user];
    else --cards[e.user];
  }
  ASSERT_TRUE(method->FlushIngest().ok());
  for (UserId u = 0; u < 8; ++u) {
    for (UserId v = u + 1; v < 8; ++v) {
      const PairEstimate est = method->EstimatePair(u, v);
      EXPECT_GE(est.common, 0.0);
      EXPECT_LE(est.common,
                std::min(cards[u], cards[v]) + 1e-9)
          << "pair (" << u << "," << v << ")";
      EXPECT_GE(est.jaccard, 0.0);
      EXPECT_LE(est.jaccard, 1.0);
    }
  }
}

TEST_P(MethodConformanceTest, FullChurnReturnsToZero) {
  // Insert a set, delete all of it: estimates must return to 0 (exactly
  // for parity sketches; via n_u = 0 and clamping for the others).
  auto method = Make();
  for (ItemId i = 0; i < 100; ++i) {
    method->Update({0, i, Action::kInsert});
    method->Update({1, i, Action::kInsert});
  }
  for (ItemId i = 0; i < 100; ++i) {
    method->Update({0, i, Action::kDelete});
    method->Update({1, i, Action::kDelete});
  }
  ASSERT_TRUE(method->FlushIngest().ok());
  const PairEstimate est = method->EstimatePair(0, 1);
  EXPECT_DOUBLE_EQ(est.common, 0.0);
}

TEST_P(MethodConformanceTest, PrepareQueryDoesNotChangeEstimates) {
  auto method = Make();
  for (ItemId i = 0; i < 300; ++i) {
    method->Update({0, i, Action::kInsert});
    method->Update({1, i < 150 ? i : i + 9000, Action::kInsert});
  }
  ASSERT_TRUE(method->FlushIngest().ok());
  const PairEstimate plain = method->EstimatePair(0, 1);
  method->PrepareQuery({0, 1});
  const PairEstimate cached = method->EstimatePair(0, 1);
  method->InvalidateQueryCache();
  const PairEstimate invalidated = method->EstimatePair(0, 1);
  EXPECT_DOUBLE_EQ(plain.common, cached.common);
  EXPECT_DOUBLE_EQ(plain.jaccard, cached.jaccard);
  EXPECT_DOUBLE_EQ(plain.common, invalidated.common);
}

TEST_P(MethodConformanceTest, DeterministicAcrossInstances) {
  auto a = Make();
  auto b = Make();
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  for (const Element& e : stream->elements()) {
    if (e.user >= 64) continue;
    a->Update(e);
    b->Update(e);
  }
  ASSERT_TRUE(a->FlushIngest().ok());
  ASSERT_TRUE(b->FlushIngest().ok());
  for (UserId u = 0; u < 6; ++u) {
    for (UserId v = u + 1; v < 6; ++v) {
      EXPECT_DOUBLE_EQ(a->EstimatePair(u, v).common,
                       b->EstimatePair(u, v).common);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodConformanceTest,
                         ::testing::ValuesIn(DefaultCases()),
                         [](const auto& info) { return info.param.label; });

INSTANTIATE_TEST_SUITE_P(ShardedMatrix, MethodConformanceTest,
                         ::testing::ValuesIn(ShardedMatrixCases()),
                         [](const auto& info) { return info.param.label; });

}  // namespace
}  // namespace vos::harness
