// Tests for the batch query engine: the word-span popcount kernels,
// DigestMatrix extraction, and QueryPlanner's TopK and AllPairsAbove at
// one shard and at four, which must be bit-identical to the per-pair
// references for every thread count and tile size, prefiltered (τ > 0)
// or not (τ = 0), boundary thresholds included.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/popcount.h"
#include "common/random.h"
#include "core/digest_matrix.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/vos_method.h"
#include "core/vos_sketch.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

VosConfig TestConfig(uint32_t k = 512, uint64_t m = 1 << 14,
                     uint64_t seed = 101) {
  VosConfig config;
  config.k = k;
  config.m = m;
  config.seed = seed;
  return config;
}

/// A feasible insertion-only workload with planted near-duplicate pairs
/// so thresholded queries return hits: users 4t and 4t+1 share ~80% of
/// their items, everyone else is essentially disjoint.
std::vector<Element> PlantedElements(UserId users, size_t edges_per_user) {
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    const uint64_t base = (u % 4 <= 1) ? (u / 4) * 1000000 : u * 1000000;
    for (size_t i = 0; i < edges_per_user; ++i) {
      const bool shared = (u % 4 <= 1) && i < edges_per_user * 8 / 10;
      const ItemId item = static_cast<ItemId>(
          shared ? base + i : base + 500000 + (u % 4) * 100000 + i);
      elements.push_back({u, item, Action::kInsert});
    }
  }
  return elements;
}

VosSketch PopulatedSketch(const VosConfig& config, UserId users,
                          size_t edges_per_user) {
  VosSketch sketch(config, users);
  for (const Element& e : PlantedElements(users, edges_per_user)) {
    sketch.Update(e);
  }
  return sketch;
}

ShardedVosConfig ShardedConfig(uint32_t shards, const VosConfig& base) {
  ShardedVosConfig config;
  config.base = base;
  config.num_shards = shards;
  return config;
}

std::vector<UserId> AllUsers(UserId count) {
  std::vector<UserId> users;
  for (UserId u = 0; u < count; ++u) users.push_back(u);
  return users;
}

// ----------------------------------------------------------- popcount kernels

TEST(PopcountKernelTest, XorPopcountMatchesBitVectorHamming) {
  Rng rng(7);
  for (size_t num_bits : {1u, 63u, 64u, 65u, 200u, 256u, 511u, 6400u}) {
    const size_t words = (num_bits + 63) / 64;
    BitVector a(num_bits), b(num_bits);
    for (size_t pos = 0; pos < num_bits; ++pos) {
      if (rng.NextBernoulli(0.4)) a.Flip(pos);
      if (rng.NextBernoulli(0.3)) b.Flip(pos);
    }
    EXPECT_EQ(XorPopcount(a.words().data(), b.words().data(), words),
              a.HammingDistance(b))
        << "num_bits=" << num_bits;
  }
}

TEST(PopcountKernelTest, PopcountWordsMatchesOnes) {
  Rng rng(9);
  BitVector v(1000);
  for (size_t pos = 0; pos < 1000; ++pos) {
    if (rng.NextBernoulli(0.5)) v.Flip(pos);
  }
  EXPECT_EQ(PopcountWords(v.words().data(), v.words().size()), v.ones());
}

// ----------------------------------------------------------------- f-seed cache

TEST(FSeedCacheTest, TableMatchesCellOfAndIsDeterministic) {
  VosSketch sketch(TestConfig(), 10);
  VosSketch twin(TestConfig(), 10);
  ASSERT_EQ(sketch.f_seed_table().size(), sketch.config().k);
  EXPECT_EQ(sketch.f_seed_table(), twin.f_seed_table());
  for (uint32_t j : {0u, 1u, 255u, 511u}) {
    EXPECT_EQ(sketch.CellOf(3, j),
              hash::ReduceToRange(
                  hash::Hash64(3, sketch.f_seed_table()[j]),
                  sketch.config().m));
  }
  // Snapshot copies share the cache and keep answering identically.
  const VosSketch copy = sketch;
  EXPECT_EQ(&copy.f_seed_table(), &sketch.f_seed_table());
  EXPECT_EQ(copy.CellOf(7, 100), sketch.CellOf(7, 100));
}

// ----------------------------------------------------------------- DigestMatrix

TEST(DigestMatrixTest, RowsBitIdenticalToExtractUserSketch) {
  for (uint32_t k : {64u, 100u, 512u}) {  // word-aligned and padded rows
    const VosSketch sketch =
        PopulatedSketch(TestConfig(k, 1 << 14, 5), 24, 50);
    const auto users = AllUsers(24);
    for (unsigned threads : {1u, 2u, 8u}) {
      const DigestMatrix matrix = DigestMatrix::Build(sketch, users, threads);
      ASSERT_EQ(matrix.rows(), users.size());
      ASSERT_EQ(matrix.k(), k);
      for (size_t i = 0; i < users.size(); ++i) {
        EXPECT_TRUE(matrix.RowAsBitVector(i) ==
                    sketch.ExtractUserSketch(users[i]))
            << "k=" << k << " threads=" << threads << " row=" << i;
      }
    }
  }
}

TEST(DigestMatrixTest, SingleRowExtractionMatchesBuild) {
  const VosSketch sketch = PopulatedSketch(TestConfig(200), 8, 40);
  const auto users = AllUsers(8);
  const DigestMatrix matrix = DigestMatrix::Build(sketch, users, 1);
  std::vector<uint64_t> row(DigestMatrix::WordsPerRow(200), ~uint64_t{0});
  DigestMatrix::ExtractRow(sketch, 5, row.data());
  for (size_t w = 0; w < row.size(); ++w) {
    EXPECT_EQ(row[w], matrix.Row(5)[w]) << "word " << w;
  }
}

TEST(DigestMatrixTest, EmptyAndClear) {
  const VosSketch sketch(TestConfig(), 4);
  DigestMatrix matrix = DigestMatrix::Build(sketch, {}, 4);
  EXPECT_TRUE(matrix.empty());
  matrix = DigestMatrix::Build(sketch, {1, 2}, 2);
  EXPECT_EQ(matrix.rows(), 2u);
  matrix.Clear();
  EXPECT_TRUE(matrix.empty());
  EXPECT_EQ(matrix.MemoryBytes(), 0u);
}

// ------------------------------------------- planner batch vs reference

void ExpectEntriesIdentical(const std::vector<QueryPlanner::Entry>& a,
                            const std::vector<QueryPlanner::Entry>& b,
                            const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user) << context << " entry " << i;
    EXPECT_EQ(a[i].common, b[i].common) << context << " entry " << i;
    EXPECT_EQ(a[i].jaccard, b[i].jaccard) << context << " entry " << i;
  }
}

void ExpectPairsIdentical(const std::vector<QueryPlanner::Pair>& a,
                          const std::vector<QueryPlanner::Pair>& b,
                          const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u) << context << " pair " << i;
    EXPECT_EQ(a[i].v, b[i].v) << context << " pair " << i;
    EXPECT_EQ(a[i].common, b[i].common) << context << " pair " << i;
    EXPECT_EQ(a[i].jaccard, b[i].jaccard) << context << " pair " << i;
  }
}

/// The pairs of a reference result at or above `tau`: the reference at
/// `tau` itself, since filtering keeps its PairBefore order.
std::vector<QueryPlanner::Pair> Above(
    const std::vector<QueryPlanner::Pair>& reference, double tau) {
  std::vector<QueryPlanner::Pair> kept;
  for (const QueryPlanner::Pair& pair : reference) {
    if (pair.jaccard >= tau) kept.push_back(pair);
  }
  return kept;
}

const uint32_t kShardCounts[] = {1, 4};

TEST(PlannerBatchTest, TopKIdenticalToReferenceAcrossThreadCounts) {
  const std::vector<Element> elements = PlantedElements(60, 80);
  for (const uint32_t shards : kShardCounts) {
    ShardedVosSketch sketch(
        ShardedConfig(shards, TestConfig(512, 1 << 15, 17)), 60);
    sketch.UpdateBatch(elements.data(), elements.size());
    for (unsigned threads : {1u, 2u, 8u}) {  // snapshot threads; TopK has one
      QueryOptions options;
      options.num_threads = threads;
      QueryPlanner planner(sketch, {}, options);
      planner.Rebuild(AllUsers(60));
      const std::string context = "S=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
      for (UserId query : {0u, 1u, 59u}) {  // candidates
        for (size_t k : {size_t{1}, size_t{10}}) {
          ExpectEntriesIdentical(planner.TopK(query, k),
                                 planner.TopKReference(query, k), context);
        }
      }
      // Full ranking, and k beyond the candidate count.
      ExpectEntriesIdentical(planner.TopK(0, 1000),
                             planner.TopKReference(0, 1000), context);
    }
  }
}

TEST(PlannerBatchTest, TopKNonCandidateQueryExtractsLive) {
  const std::vector<Element> elements = PlantedElements(40, 60);
  for (const uint32_t shards : kShardCounts) {
    ShardedVosSketch sketch(
        ShardedConfig(shards, TestConfig(512, 1 << 15, 19)), 40);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner planner(sketch);
    planner.Rebuild(AllUsers(20));  // users 20..39 are not candidates
    const std::string context = "S=" + std::to_string(shards);
    ExpectEntriesIdentical(planner.TopK(25, 8), planner.TopKReference(25, 8),
                           context);
    EXPECT_EQ(planner.TopK(25, 8).size(), 8u) << context;
  }
}

/// Snapshot semantics: candidate rows — the query's own included — are
/// the ones captured at Rebuild, so answers do not move until the next
/// Rebuild, whichever side of the pair changed.
TEST(PlannerBatchTest, TopKAnswersFromTheSnapshotUntilRebuild) {
  for (const uint32_t shards : kShardCounts) {
    for (const UserId mutated : {UserId{0}, UserId{1}}) {
      const std::string context = "S=" + std::to_string(shards) +
                                  " mutated=" + std::to_string(mutated);
      ShardedVosSketch sketch(
          ShardedConfig(shards, TestConfig(2048, 1 << 16, 29)), 4);
      for (ItemId i = 0; i < 50; ++i) {
        sketch.Update({0, i, Action::kInsert});
        sketch.Update({1, i, Action::kInsert});
      }
      QueryPlanner planner(sketch);
      planner.Rebuild({0, 1});
      const double before = planner.TopK(0, 1)[0].jaccard;
      EXPECT_GT(before, 0.8) << context;

      // One side of the pair unsubscribes everything; the query (user 0)
      // is a candidate, so even its own row is the snapshot's.
      for (ItemId i = 0; i < 50; ++i) {
        sketch.Update({mutated, i, Action::kDelete});
      }
      EXPECT_EQ(planner.TopK(0, 1)[0].jaccard, before) << context;
      planner.Rebuild({0, 1});
      EXPECT_LT(planner.TopK(0, 1)[0].jaccard, 0.25) << context;
    }
  }
}

TEST(PlannerBatchTest, TopKFindsPlantedNeighborAndCapsK) {
  const UserId users = 30;
  std::vector<Element> elements;
  // User 0 and user 1 share 90 of 100 items; everyone else is disjoint.
  for (ItemId i = 0; i < 100; ++i) {
    elements.push_back({0, i, Action::kInsert});
    elements.push_back({1, i < 90 ? i : i + 5000, Action::kInsert});
  }
  for (UserId u = 2; u < users; ++u) {
    for (ItemId i = 0; i < 100; ++i) {
      elements.push_back({u, 100000 + u * 1000 + i, Action::kInsert});
    }
  }
  for (const uint32_t shards : kShardCounts) {
    const std::string context = "S=" + std::to_string(shards);
    ShardedVosSketch sketch(
        ShardedConfig(shards, TestConfig(4096, 1 << 18, 21)), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner planner(sketch);
    planner.Rebuild(AllUsers(users));
    EXPECT_EQ(planner.candidate_count(), size_t{users}) << context;

    const auto top = planner.TopK(0, 3);
    ASSERT_EQ(top.size(), 3u) << context;
    EXPECT_EQ(top[0].user, 1u) << context;
    EXPECT_GT(top[0].jaccard, 0.6) << context;
    EXPECT_LT(top[1].jaccard, 0.2) << context;  // everyone else dissimilar
    EXPECT_NEAR(top[0].common, 90.0, 12.0) << context;

    // k beyond the candidate count returns every candidate but the query.
    const auto all = planner.TopK(2, 100);
    EXPECT_EQ(all.size(), size_t{users - 1}) << context;
    for (const auto& entry : all) EXPECT_NE(entry.user, 2u) << context;
  }
}

/// τ = 0 runs the unprefiltered scan (scan::PrefilterApplies needs τ > 0);
/// the other thresholds run the prefiltered one. Both are bit-identical
/// to the per-pair reference for every thread count and tile size.
TEST(PlannerBatchTest, AllPairsIdenticalAcrossThreadsAndTiles) {
  const std::vector<Element> elements = PlantedElements(60, 80);
  for (const uint32_t shards : kShardCounts) {
    ShardedVosSketch sketch(
        ShardedConfig(shards, TestConfig(512, 1 << 15, 31)), 60);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner probe(sketch);
    probe.Rebuild(AllUsers(60));
    const auto reference = probe.AllPairsAboveReference(0.0);
    for (unsigned threads : {1u, 2u, 8u}) {
      for (size_t tile_rows : {1u, 7u, 64u, 0u}) {  // 0 = adaptive
        QueryOptions options;
        options.num_threads = threads;
        options.tile_rows = tile_rows;
        QueryPlanner planner(sketch, {}, options);
        planner.Rebuild(AllUsers(60));
        for (double tau : {0.0, 0.2, 0.5, 0.9}) {
          ExpectPairsIdentical(planner.AllPairsAbove(tau),
                               Above(reference, tau),
                               "S=" + std::to_string(shards) +
                                   " threads=" + std::to_string(threads) +
                                   " tile_rows=" + std::to_string(tile_rows) +
                                   " tau=" + std::to_string(tau));
        }
      }
    }
  }
}

/// Exact-boundary thresholds: re-query at every Ĵ the reference returns,
/// so each of those pairs sits exactly on τ and must survive the
/// prefilter's slacked bounds.
TEST(PlannerBatchTest, PrefilterKeepsBoundaryPairs) {
  const std::vector<Element> elements = PlantedElements(48, 100);
  for (const uint32_t shards : kShardCounts) {
    ShardedVosSketch sketch(
        ShardedConfig(shards, TestConfig(1024, 1 << 16, 41)), 48);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner planner(sketch);
    planner.Rebuild(AllUsers(48));
    const auto reference = planner.AllPairsAboveReference(0.0);
    std::vector<double> thresholds = {0.0, 0.1, 0.3, 0.6, 0.95};
    for (const auto& pair : Above(reference, 0.05)) {
      thresholds.push_back(pair.jaccard);
    }
    for (double tau : thresholds) {
      ExpectPairsIdentical(planner.AllPairsAbove(tau), Above(reference, tau),
                           "S=" + std::to_string(shards) +
                               " tau=" + std::to_string(tau));
    }
  }
}

TEST(PlannerBatchTest, SortedSweepIdenticalOnSkewedCardinalities) {
  // Heavy-tailed set sizes exercise the cardinality-sorted window break:
  // most pairs are skipped before the popcount, and none of the skips may
  // change the result.
  std::vector<Element> elements;
  for (UserId u = 0; u < 50; ++u) {
    const size_t edges = 5 + 500 / (1 + u % 17);  // sizes 5..505, repeated
    for (size_t i = 0; i < edges; ++i) {
      // Users with equal (u % 17) share a prefix of items, so some skewed
      // pairs really are similar and some boundary pairs have min ≈ τ·max.
      const ItemId item = static_cast<ItemId>(
          i < edges / 2 ? (u % 17) * 100000 + i : u * 100000 + 50000 + i);
      elements.push_back({u, item, Action::kInsert});
    }
  }
  for (const uint32_t shards : kShardCounts) {
    ShardedVosSketch sketch(
        ShardedConfig(shards, TestConfig(1024, 1 << 16, 73)), 50);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner probe(sketch);
    probe.Rebuild(AllUsers(50));
    const auto reference = probe.AllPairsAboveReference(0.0);
    std::vector<double> thresholds = {0.05, 0.3, 0.5, 0.8};
    for (const auto& pair : Above(reference, 0.01)) {
      thresholds.push_back(pair.jaccard);  // exact boundaries
    }
    for (size_t tile_rows : {1u, 7u, 64u, 0u}) {  // 0 = adaptive
      QueryOptions options;
      options.num_threads = 4;
      options.tile_rows = tile_rows;
      QueryPlanner planner(sketch, {}, options);
      planner.Rebuild(AllUsers(50));
      for (double tau : thresholds) {
        ExpectPairsIdentical(planner.AllPairsAbove(tau),
                             Above(reference, tau),
                             "S=" + std::to_string(shards) +
                                 " tile_rows=" + std::to_string(tile_rows) +
                                 " tau=" + std::to_string(tau));
      }
    }
  }
}

TEST(PlannerBatchTest, AllPairsFindsPlantedDuplicates) {
  const std::vector<Element> elements = PlantedElements(40, 100);
  for (const uint32_t shards : kShardCounts) {
    const std::string context = "S=" + std::to_string(shards);
    ShardedVosSketch sketch(
        ShardedConfig(shards, TestConfig(4096, 1 << 18, 47)), 40);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner planner(sketch);
    planner.Rebuild(AllUsers(40));
    const auto pairs = planner.AllPairsAbove(0.5);
    // Ten planted clusters {4t, 4t+1} with true J = 0.8/1.2 ≈ 0.67.
    ASSERT_EQ(pairs.size(), 10u) << context;
    std::unordered_set<UserId> seen;
    for (const auto& pair : pairs) {
      EXPECT_EQ(pair.u % 4, 0u) << context;
      EXPECT_EQ(pair.v, pair.u + 1) << context;
      EXPECT_GT(pair.jaccard, 0.5) << context;
      seen.insert(pair.u);
    }
    EXPECT_EQ(seen.size(), 10u) << context;
  }
}

TEST(PlannerBatchTest, AllPairsAboveThresholdOrdersByJaccard) {
  // Two planted near-duplicate clusters: {0,1} and {2,3}; 4, 5 singletons.
  std::vector<Element> elements;
  for (ItemId i = 0; i < 80; ++i) {
    elements.push_back({0, i, Action::kInsert});
    elements.push_back({1, i, Action::kInsert});
    elements.push_back({2, 1000 + i, Action::kInsert});
    elements.push_back({3, 1000 + (i < 60 ? i : i + 500), Action::kInsert});
    elements.push_back({4, 2000 + i, Action::kInsert});
    elements.push_back({5, 3000 + i, Action::kInsert});
  }
  for (const uint32_t shards : kShardCounts) {
    const std::string context = "S=" + std::to_string(shards);
    ShardedVosSketch sketch(
        ShardedConfig(shards, TestConfig(4096, 1 << 18, 23)), 6);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner planner(sketch);
    planner.Rebuild({0, 1, 2, 3, 4, 5});
    const auto pairs = planner.AllPairsAbove(0.5);
    ASSERT_EQ(pairs.size(), 2u) << context;
    EXPECT_EQ(pairs[0].u, 0u) << context;  // J≈1 sorts first
    EXPECT_EQ(pairs[0].v, 1u) << context;
    EXPECT_EQ(pairs[1].u, 2u) << context;
    EXPECT_EQ(pairs[1].v, 3u) << context;
    EXPECT_GT(pairs[0].jaccard, pairs[1].jaccard) << context;
  }
}

// ------------------------------------------------------- VosMethod fast path

TEST(VosMethodBatchCacheTest, MixedCachedAndUncachedPairsMatchDirect) {
  const VosConfig config = TestConfig(512, 1 << 15, 61);
  VosMethod cached(config, 30);
  VosMethod direct(config, 30);
  Rng rng(71);
  for (int i = 0; i < 2000; ++i) {
    const Element e{static_cast<UserId>(rng.NextBounded(30)),
                    static_cast<ItemId>(1000000 + i), Action::kInsert};
    cached.Update(e);
    direct.Update(e);
  }
  cached.SetQueryThreads(2);
  cached.PrepareQuery({0, 1, 2, 3, 4});
  for (UserId u = 0; u < 6; ++u) {    // user 5 is uncached
    for (UserId v = u + 1; v < 7; ++v) {  // user 6 is uncached
      const PairEstimate a = cached.EstimatePair(u, v);
      const PairEstimate b = direct.EstimatePair(u, v);
      EXPECT_EQ(a.common, b.common) << u << "," << v;  // bit-identical
      EXPECT_EQ(a.jaccard, b.jaccard) << u << "," << v;
    }
  }
  cached.InvalidateQueryCache();
  EXPECT_EQ(cached.EstimatePair(0, 1).common, direct.EstimatePair(0, 1).common);
}

}  // namespace
}  // namespace vos::core
