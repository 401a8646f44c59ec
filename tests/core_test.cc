// Unit tests for src/core — the paper's contribution: OddSketch, VosSketch,
// VosEstimator (including the §IV moment formulas) and the SimilarityMethod
// adapters.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/odd_sketch.h"
#include "core/similarity_method.h"
#include "core/vos_estimator.h"
#include "core/sharded_vos_method.h"
#include "core/vos_sketch.h"
#include "stream/dataset.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;

// ---------------------------------------------------------------- OddSketch

TEST(OddSketchTest, InsertThenDeleteCancelsExactly) {
  OddSketch sketch(64, 7);
  for (ItemId i = 0; i < 100; ++i) sketch.Toggle(i);
  EXPECT_GT(sketch.Ones(), 0u);
  for (ItemId i = 0; i < 100; ++i) sketch.Toggle(i);  // delete everything
  EXPECT_EQ(sketch.Ones(), 0u);
}

TEST(OddSketchTest, OrderIrrelevance) {
  OddSketch a(32, 3), b(32, 3);
  a.Toggle(1);
  a.Toggle(2);
  a.Toggle(3);
  b.Toggle(3);
  b.Toggle(1);
  b.Toggle(2);
  EXPECT_TRUE(a.bits() == b.bits());
}

TEST(OddSketchTest, BucketMatchesParityDefinition) {
  // O[j] must equal the parity of |{i in S : psi(i) = j}|.
  OddSketch sketch(16, 11);
  const std::vector<ItemId> items = {5, 9, 14, 21, 33, 47, 58};
  std::vector<int> counts(16, 0);
  for (ItemId i : items) {
    sketch.Toggle(i);
    ++counts[sketch.BucketOf(i)];
  }
  for (uint32_t j = 0; j < 16; ++j) {
    EXPECT_EQ(sketch.bits().Get(j), counts[j] % 2 == 1) << "bucket " << j;
  }
}

TEST(OddSketchTest, IdenticalSetsGiveZeroEstimate) {
  OddSketch a(128, 5), b(128, 5);
  for (ItemId i = 0; i < 50; ++i) {
    a.Toggle(i);
    b.Toggle(i);
  }
  EXPECT_DOUBLE_EQ(OddSketch::EstimateSymmetricDifference(a, b), 0.0);
}

TEST(OddSketchTest, EstimateTracksTrueSymmetricDifference) {
  // Average the estimator over independent seeds; it should land near the
  // true nΔ (within a few percent for nΔ ≪ k).
  constexpr uint32_t kBits = 512;
  constexpr int kTrueDelta = 60;
  constexpr int kTrials = 60;
  double sum = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    OddSketch a(kBits, 100 + trial), b(kBits, 100 + trial);
    for (ItemId i = 0; i < 200; ++i) {  // 200 shared items
      a.Toggle(i);
      b.Toggle(i);
    }
    for (ItemId i = 1000; i < 1000 + kTrueDelta / 2; ++i) a.Toggle(i);
    for (ItemId i = 2000; i < 2000 + kTrueDelta / 2; ++i) b.Toggle(i);
    sum += OddSketch::EstimateSymmetricDifference(a, b);
  }
  EXPECT_NEAR(sum / kTrials, kTrueDelta, 0.10 * kTrueDelta);
}

TEST(OddSketchTest, SaturationYieldsFiniteCap) {
  const double capped =
      OddSketch::EstimateSymmetricDifferenceFromAlpha(0.5, 64);
  EXPECT_TRUE(std::isfinite(capped));
  EXPECT_GT(capped, 64.0);  // far beyond the reliable range, but finite
  // Monotone below the cap.
  EXPECT_LT(OddSketch::EstimateSymmetricDifferenceFromAlpha(0.1, 64),
            OddSketch::EstimateSymmetricDifferenceFromAlpha(0.3, 64));
}

// ---------------------------------------------------------------- VosSketch

VosConfig SmallVosConfig(uint32_t k = 256, uint64_t m = 1 << 14,
                         uint64_t seed = 5) {
  VosConfig config;
  config.k = k;
  config.m = m;
  config.seed = seed;
  return config;
}

TEST(VosSketchTest, InsertDeleteCancelsToEmptyArray) {
  VosSketch sketch(SmallVosConfig(), 50);
  Rng rng(3);
  std::vector<Element> inserted;
  for (int i = 0; i < 500; ++i) {
    const Element e{static_cast<stream::UserId>(rng.NextBounded(50)),
                    static_cast<ItemId>(rng.NextBounded(1000)),
                    Action::kInsert};
    // Skip duplicates to keep the stream feasible.
    bool duplicate = false;
    for (const Element& prev : inserted) {
      if (prev.user == e.user && prev.item == e.item) duplicate = true;
    }
    if (duplicate) continue;
    inserted.push_back(e);
    sketch.Update(e);
  }
  EXPECT_GT(sketch.array().ones(), 0u);
  for (const Element& e : inserted) {
    sketch.Update({e.user, e.item, Action::kDelete});
  }
  EXPECT_EQ(sketch.array().ones(), 0u);
  EXPECT_DOUBLE_EQ(sketch.beta(), 0.0);
  for (stream::UserId u = 0; u < 50; ++u) {
    EXPECT_EQ(sketch.Cardinality(u), 0u);
  }
}

TEST(VosSketchTest, BetaIsExactFractionOfOnes) {
  VosSketch sketch(SmallVosConfig(128, 1024), 20);
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    sketch.Update({static_cast<stream::UserId>(rng.NextBounded(20)),
                   static_cast<ItemId>(i), Action::kInsert});
    size_t brute = 0;
    for (size_t pos = 0; pos < sketch.array().size(); ++pos) {
      brute += sketch.array().Get(pos);
    }
    ASSERT_DOUBLE_EQ(sketch.beta(),
                     static_cast<double>(brute) / sketch.array().size());
  }
}

TEST(VosSketchTest, PaperBetaUpdateRuleEquivalence) {
  // The paper's running update β ← β + 2·((old-bit ⊕ 1) − ½)/m (interpreted
  // on the pre-flip value, DESIGN.md §2) must match the exact counter.
  VosSketch sketch(SmallVosConfig(64, 512), 10);
  double paper_beta = 0.0;
  const double m = 512.0;
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto user = static_cast<stream::UserId>(rng.NextBounded(10));
    const auto item = static_cast<ItemId>(i);
    const uint64_t cell = sketch.CellOf(user, sketch.BucketOf(item));
    const bool old_bit = sketch.array().Get(cell);
    paper_beta += 2.0 * ((old_bit ? 0.0 : 1.0) - 0.5) / m;
    sketch.Update({user, item, Action::kInsert});
    ASSERT_NEAR(sketch.beta(), paper_beta, 1e-9);
  }
}

TEST(VosSketchTest, ExtractMatchesGetUserBit) {
  VosSketch sketch(SmallVosConfig(), 30);
  for (ItemId i = 0; i < 200; ++i) {
    sketch.Update({static_cast<stream::UserId>(i % 30), i, Action::kInsert});
  }
  for (stream::UserId u : {0u, 7u, 29u}) {
    const BitVector extracted = sketch.ExtractUserSketch(u);
    ASSERT_EQ(extracted.size(), sketch.config().k);
    for (uint32_t j = 0; j < sketch.config().k; ++j) {
      ASSERT_EQ(extracted.Get(j), sketch.GetUserBit(u, j));
    }
  }
}

TEST(VosSketchTest, UpdateIsActionBlindOnArray) {
  // The array flip is identical for insert and delete of the same edge.
  VosSketch a(SmallVosConfig(), 5), b(SmallVosConfig(), 5);
  a.Update({1, 42, Action::kInsert});
  b.Update({1, 42, Action::kInsert});
  b.Update({1, 42, Action::kDelete});
  b.Update({1, 42, Action::kInsert});
  EXPECT_TRUE(a.array() == b.array());
  EXPECT_EQ(a.Cardinality(1), b.Cardinality(1));
}

TEST(VosSketchTest, CardinalityFollowsStream) {
  VosSketch sketch(SmallVosConfig(), 3);
  sketch.Update({2, 1, Action::kInsert});
  sketch.Update({2, 2, Action::kInsert});
  sketch.Update({2, 1, Action::kDelete});
  EXPECT_EQ(sketch.Cardinality(2), 1u);
  EXPECT_EQ(sketch.Cardinality(0), 0u);
}

TEST(VosSketchTest, MemoryBitsIsArrayOnly) {
  VosSketch sketch(SmallVosConfig(256, 4096), 1000);
  EXPECT_EQ(sketch.MemoryBits(), 4096u);
}

// -------------------------------------------------------------- VosEstimator

TEST(VosEstimatorTest, ZeroAlphaZeroBetaGivesFullOverlap) {
  VosEstimator est(512);
  // alpha = 0 → nΔ = 0 → s = (n_u + n_v)/2 = min when equal.
  EXPECT_NEAR(est.EstimateCommonItems(100, 100, 0.0, 0.0), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(est.EstimateSymmetricDifference(0.0, 0.0), 0.0);
}

TEST(VosEstimatorTest, RecoverySweepAcrossDeltaAndBeta) {
  // Feed the estimator its own expected alpha: it must return nΔ exactly
  // (the estimator inverts E[alpha]).
  for (uint32_t k : {256u, 1024u, 4096u}) {
    VosEstimator est(k);
    for (double beta : {0.0, 0.05, 0.2}) {
      for (double n_delta : {0.0, 10.0, 100.0, 500.0}) {
        if (n_delta > k / 4) continue;  // stay in the reliable regime
        const double alpha = est.ExpectedAlpha(n_delta, beta);
        // ExpectedAlpha uses exp(-2nΔ/k); the estimator inverts it exactly.
        EXPECT_NEAR(est.EstimateSymmetricDifference(alpha, beta), n_delta,
                    1e-6 * std::max(1.0, n_delta))
            << "k=" << k << " beta=" << beta << " nΔ=" << n_delta;
      }
    }
  }
}

TEST(VosEstimatorTest, ClampingKeepsEstimatesFeasible) {
  VosEstimator clamped(64);
  // Saturated alpha would give a huge negative s without clamping.
  const double s = clamped.EstimateCommonItems(10, 12, 0.49, 0.0);
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 10.0);

  VosEstimatorOptions raw_options;
  raw_options.clamp_to_feasible = false;
  VosEstimator raw(64, raw_options);
  EXPECT_LT(raw.EstimateCommonItems(10, 12, 0.49, 0.0), 0.0);
}

TEST(VosEstimatorTest, JaccardEdgeCases) {
  VosEstimator est(64);
  EXPECT_DOUBLE_EQ(est.JaccardFromCommon(0, 0, 0), 0.0);   // both empty
  EXPECT_DOUBLE_EQ(est.JaccardFromCommon(5, 5, 5), 1.0);   // identical
  EXPECT_DOUBLE_EQ(est.JaccardFromCommon(2, 4, 4), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(est.JaccardFromCommon(8, 4, 4), 1.0);   // clamped
}

TEST(VosEstimatorTest, EstimateCombinesBoth) {
  VosEstimator est(1024);
  const double alpha = est.ExpectedAlpha(50, 0.1);
  const PairEstimate pe = est.Estimate(100, 150, alpha, 0.1);
  // nΔ = 50 → s = (100+150-50)/2 = 100, J = 100/150.
  EXPECT_NEAR(pe.common, 100.0, 1e-6);
  EXPECT_NEAR(pe.jaccard, 100.0 / 150.0, 1e-6);
}

TEST(VosEstimatorTest, ExpectedAlphaMatchesSimulation) {
  // Simulate the §IV noise model directly: true odd-sketch XOR bits with
  // P(1) = (1-(1-2/k)^{nΔ})/2, each reconstructed bit flipped w.p. beta.
  constexpr uint32_t k = 2048;
  constexpr double beta = 0.15;
  constexpr int n_delta = 120;
  VosEstimator est(k);
  Rng rng(77);
  double total_alpha = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    int ones = 0;
    for (uint32_t j = 0; j < k; ++j) {
      const double p_true = 0.5 * (1 - std::pow(1 - 2.0 / k, n_delta));
      bool bit = rng.NextBernoulli(p_true);
      if (rng.NextBernoulli(beta)) bit = !bit;  // contamination of Ô_u
      if (rng.NextBernoulli(beta)) bit = !bit;  // contamination of Ô_v
      ones += bit;
    }
    total_alpha += static_cast<double>(ones) / k;
  }
  EXPECT_NEAR(total_alpha / kTrials, est.ExpectedAlpha(n_delta, beta), 0.002);
}

TEST(VosEstimatorTest, MomentFormulasAreFiniteAndOrdered) {
  VosEstimator est(6400);
  for (double beta : {0.01, 0.1, 0.3}) {
    for (double n_delta : {10.0, 100.0, 1000.0}) {
      const double mean = est.ExpectedCommonEstimate(500, n_delta, beta);
      const double var = est.VarianceCommonEstimate(n_delta, beta);
      EXPECT_TRUE(std::isfinite(mean));
      EXPECT_TRUE(std::isfinite(var));
      EXPECT_GT(var, 0.0) << "beta=" << beta << " nΔ=" << n_delta;
    }
  }
  // Variance grows with contamination.
  EXPECT_LT(est.VarianceCommonEstimate(100, 0.01),
            est.VarianceCommonEstimate(100, 0.3));
}

// ------------------------------------------- VOS (one-shard ShardedVosMethod)

/// The paper's VOS as the factory builds it: one shard, synchronous ingest.
ShardedVosConfig OneShard(const VosConfig& base) {
  ShardedVosConfig config;
  config.base = base;
  return config;
}

TEST(VosOneShardTest, PrepareQueryCacheMatchesDirectEstimates) {
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  const ShardedVosConfig config = OneShard(SmallVosConfig(512, 1 << 15, 21));
  ShardedVosMethod cached(config, stream->num_users());
  ShardedVosMethod direct(config, stream->num_users());
  for (const Element& e : stream->elements()) {
    cached.Update(e);
    direct.Update(e);
  }
  std::vector<stream::UserId> users = {0, 1, 2, 3, 4, 5};
  cached.PrepareQuery(users);
  for (stream::UserId u : users) {
    for (stream::UserId v : users) {
      if (u >= v) continue;
      const PairEstimate a = cached.EstimatePair(u, v);
      const PairEstimate b = direct.EstimatePair(u, v);
      EXPECT_DOUBLE_EQ(a.common, b.common);
      EXPECT_DOUBLE_EQ(a.jaccard, b.jaccard);
    }
  }
  cached.InvalidateQueryCache();
  const PairEstimate after = cached.EstimatePair(0, 1);
  EXPECT_DOUBLE_EQ(after.common, direct.EstimatePair(0, 1).common);
}

TEST(VosOneShardTest, NameAndMemory) {
  ShardedVosConfig config = OneShard(SmallVosConfig(64, 2048));
  const ShardedVosMethod method(config, 10);
  EXPECT_EQ(method.Name(), "VOS");
  EXPECT_EQ(method.MemoryBits(), 2048u);  // the array: no planner, no tracking
  config.num_shards = 4;
  EXPECT_EQ(ShardedVosMethod(config, 10).Name(), "VOS-sharded");
  config.num_shards = 1;
  config.ingest_threads = 1;
  EXPECT_EQ(ShardedVosMethod(config, 10).Name(), "VOS-sharded");
}

TEST(VosOneShardTest, AccurateOnDisjointAndIdenticalSets) {
  // Large-ish sketch, two users with known overlap; single instance, so we
  // tolerate sketch noise via wide margins.
  ShardedVosMethod method(OneShard(SmallVosConfig(4096, 1 << 18, 31)), 3);
  // Users 0 and 1 identical (60 items), user 2 disjoint (60 items).
  for (ItemId i = 0; i < 60; ++i) {
    method.Update({0, i, Action::kInsert});
    method.Update({1, i, Action::kInsert});
    method.Update({2, i + 10000, Action::kInsert});
  }
  const PairEstimate same = method.EstimatePair(0, 1);
  EXPECT_NEAR(same.common, 60.0, 6.0);
  EXPECT_GT(same.jaccard, 0.85);
  const PairEstimate diff = method.EstimatePair(0, 2);
  EXPECT_NEAR(diff.common, 0.0, 6.0);
  EXPECT_LT(diff.jaccard, 0.12);
}

// ------------------------------------------------ DedicatedOddSketchMethod

TEST(DedicatedOddSketchMethodTest, BasicEstimation) {
  DedicatedOddSketchMethod method(2048, 2, 17);
  for (ItemId i = 0; i < 100; ++i) {
    method.Update({0, i, Action::kInsert});
    method.Update({1, i < 80 ? i : i + 5000, Action::kInsert});
  }
  // 80 common, nΔ = 40.
  const PairEstimate est = method.EstimatePair(0, 1);
  EXPECT_NEAR(est.common, 80.0, 10.0);
  EXPECT_EQ(method.Name(), "OddSketch");
  EXPECT_EQ(method.MemoryBits(), 2u * 2048u);
}

TEST(DedicatedOddSketchMethodTest, DeletionExactness) {
  DedicatedOddSketchMethod method(512, 2, 19);
  for (ItemId i = 0; i < 50; ++i) {
    method.Update({0, i, Action::kInsert});
    method.Update({1, i, Action::kInsert});
  }
  for (ItemId i = 25; i < 50; ++i) method.Update({0, i, Action::kDelete});
  for (ItemId i = 25; i < 50; ++i) method.Update({1, i, Action::kDelete});
  // Both sets shrank to the same 25 items: estimate must be ~25, J ~1.
  const PairEstimate est = method.EstimatePair(0, 1);
  EXPECT_NEAR(est.common, 25.0, 3.0);
  EXPECT_GT(est.jaccard, 0.9);
}

}  // namespace
}  // namespace vos::core
