// Tests for the shared tiled pair-scan tier (core/pair_scan.h).
//
// The tier's contract: the tiled scan is bit-identical to the scalar
// references in both call sites — SimilarityIndex::AllPairsAbove and
// QueryPlanner::AllPairsAbove — for every tile size (1 row, the default,
// whole-pass), thread count, shard count and prefilter setting. Tiles
// repartition the enumeration; they must never change a single bit of
// the output. Result order under heavy Ĵ ties and the VosMethod
// tile_rows knob are covered too.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/pair_scan.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
#include "core/vos_method.h"
#include "core/vos_sketch.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Community stream with planted pairs: every 4-user group's first two
/// members share 75% of their items (J ≈ 0.6 planted hits in and across
/// shards), everyone else is disjoint; ~20% of inserts get a matching
/// delete so the dynamic path is exercised too.
std::vector<Element> CommunityStream(UserId users, size_t items_per_user,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    const bool clustered = u % 4 <= 1;
    const uint64_t base = clustered ? (u / 4) * uint64_t{100000}
                                    : 10000000 + u * uint64_t{100000};
    for (size_t i = 0; i < items_per_user; ++i) {
      const bool shared = clustered && i < items_per_user * 3 / 4;
      const ItemId item = static_cast<ItemId>(
          shared ? base + i : base + 50000 + (u % 4) * 10000 + i);
      elements.push_back({u, item, Action::kInsert});
      if (!shared && rng.NextBernoulli(0.2)) {
        elements.push_back({u, item, Action::kDelete});
        elements.push_back({u, item + 7000, Action::kInsert});
      }
    }
  }
  return elements;
}

VosConfig IndexConfig(uint32_t k = 512, uint64_t m = 1 << 16) {
  VosConfig config;
  config.k = k;
  config.m = m;
  config.seed = 29;
  return config;
}

ShardedVosConfig PlannerConfig(uint32_t shards) {
  ShardedVosConfig config;
  config.base = IndexConfig();
  config.base.seed = 31;
  config.num_shards = shards;
  return config;
}

template <typename PairT>
void ExpectPairsIdentical(const std::vector<PairT>& got,
                          const std::vector<PairT>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u, want[i].u) << context << " pair " << i;
    EXPECT_EQ(got[i].v, want[i].v) << context << " pair " << i;
    EXPECT_EQ(got[i].common, want[i].common) << context << " pair " << i;
    EXPECT_EQ(got[i].jaccard, want[i].jaccard) << context << " pair " << i;
  }
}

/// The acceptance matrix on the single global index: tile sizes
/// {1 row, tier default, whole-pass} × threads {1, 8} × prefilter
/// {on, off}, all bit-identical to the scalar reference.
TEST(PairScanTest, IndexBitIdenticalAcrossTileSizesThreadsPrefilter) {
  const UserId users = 90;
  const std::vector<Element> elements = CommunityStream(users, 60, 3);
  VosSketch sketch(IndexConfig(), users);
  for (const Element& e : elements) sketch.Update(e);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  std::vector<SimilarityIndex::Pair> reference;
  {
    SimilarityIndex probe(sketch);
    probe.Rebuild(candidates);
    reference = probe.AllPairsAboveReference(0.4);
  }
  ASSERT_FALSE(reference.empty()) << "stream must plant pairs above τ";

  for (const size_t tile_rows : {size_t{1}, size_t{0}, size_t{1} << 20}) {
    for (const unsigned threads : {1u, 8u}) {
      for (const bool prefilter : {true, false}) {
        QueryOptions options;
        options.tile_rows = tile_rows;
        options.num_threads = threads;
        options.prefilter = prefilter;
        SimilarityIndex index(sketch, {}, options);
        index.Rebuild(candidates);
        ExpectPairsIdentical(index.AllPairsAbove(0.4), reference,
                             "tile_rows=" + std::to_string(tile_rows) +
                                 " threads=" + std::to_string(threads) +
                                 " prefilter=" + std::to_string(prefilter));
      }
    }
  }
}

/// The acceptance matrix on the planner: tile sizes {1 row, default,
/// whole-pass} × threads {1, 8} × S ∈ {1, 4}, bit-identical to the
/// per-pair EstimatePair reference (same-shard AND cross-shard passes go
/// through the tier's triangle and rectangle tiles respectively).
TEST(PairScanTest, PlannerBitIdenticalAcrossTileSizesThreadsShards) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 5);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    std::vector<QueryPlanner::Pair> reference;
    {
      QueryPlanner probe(sketch);
      probe.Rebuild(candidates);
      reference = probe.AllPairsAboveReference(0.4);
    }
    ASSERT_FALSE(reference.empty()) << "shards=" << shards;

    for (const size_t tile_rows : {size_t{1}, size_t{0}, size_t{1} << 20}) {
      for (const unsigned threads : {1u, 8u}) {
        QueryOptions options;
        options.tile_rows = tile_rows;
        options.num_threads = threads;
        QueryPlanner planner(sketch, {}, options);
        planner.Rebuild(candidates);
        ExpectPairsIdentical(planner.AllPairsAbove(0.4), reference,
                             "shards=" + std::to_string(shards) +
                                 " tile_rows=" + std::to_string(tile_rows) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

// ------------------------------------------- result order under ties

/// Heavy-tie stream: groups of 40 users, every user holding exactly 20
/// items drawn from its group's pool of 30 (equal cardinalities, so a
/// pair's Ĵ depends only on its digest distance), groups sharing
/// nothing. At k = 64 the distances take few values, so thousands of
/// pairs share each Ĵ — every clamped cross-group pair with ŝ ≤ 0 ties
/// on exactly 0 — and unclamped estimates leave [0, 1] on both sides.
std::vector<Element> TieStream(UserId users, uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> elements;
  std::vector<ItemId> pool(30);
  for (UserId u = 0; u < users; ++u) {
    for (size_t i = 0; i < pool.size(); ++i) {
      pool[i] = static_cast<ItemId>((u / 40) * 1000 + i);
    }
    rng.Shuffle(pool);
    for (size_t i = 0; i < 20; ++i) {
      elements.push_back({u, pool[i], Action::kInsert});
    }
  }
  return elements;
}

/// One result-order case: threshold, estimator clamp and prefilter.
struct TieCase {
  double tau;
  bool clamp;
  bool prefilter;
  std::string Name() const {
    return "tau=" + std::to_string(tau) + " clamp=" + std::to_string(clamp) +
           " prefilter=" + std::to_string(prefilter);
  }
};

const TieCase kTieCases[] = {
    {0.3, true, true},     // range buckets, prefiltered
    {0.0, true, false},    // τ ≤ 0: the Ĵ = 0 tie group
    {-1.0, false, false},  // Ĵ < 0 and Ĵ > 1 fill both end buckets
    {0.3, false, true},    // unclamped: prefilter gated off, Ĵ > 1 kept
};

/// Checks that a reference result is large, heavily tied, and (for the
/// unclamped cases) reaches outside [0, 1], so the comparison exercises
/// the tier's bucketed order rather than its small-result sort.
template <typename PairT>
void ExpectHeavyTies(const std::vector<PairT>& reference, const TieCase& c) {
  ASSERT_GT(reference.size(), 4000u) << c.Name();
  std::map<double, size_t> ties;
  for (const PairT& pair : reference) ++ties[pair.jaccard];
  size_t largest = 0;
  for (const auto& [jaccard, count] : ties) largest = std::max(largest, count);
  EXPECT_GT(largest, 100u) << c.Name();
  EXPECT_LT(ties.size(), reference.size() / 10) << c.Name();
  if (!c.clamp) {
    EXPECT_GT(reference.front().jaccard, 1.0) << c.Name();
    if (c.tau < 0.0) {
      EXPECT_LT(reference.back().jaccard, 0.0) << c.Name();
    }
  }
}

/// The result order under heavy Ĵ ties, on both surfaces: identical to
/// the references — same pairs, same order, same bits — across threads
/// {1, 2, 8} × tile_rows {1, adaptive} × S {1, 4} (planner).
TEST(PairScanTest, HeavyTieOrderBitIdenticalOnBothSurfaces) {
  const UserId users = 240;
  const std::vector<Element> elements = TieStream(users, 17);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const TieCase& c : kTieCases) {
    VosEstimatorOptions estimator;
    estimator.clamp_to_feasible = c.clamp;

    VosSketch sketch(IndexConfig(64, 1 << 14), users);
    for (const Element& e : elements) sketch.Update(e);
    std::vector<SimilarityIndex::Pair> reference;
    {
      SimilarityIndex probe(sketch, estimator);
      probe.Rebuild(candidates);
      reference = probe.AllPairsAboveReference(c.tau);
    }
    ExpectHeavyTies(reference, c);
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const size_t tile_rows : {size_t{1}, size_t{0}}) {
        QueryOptions options;
        options.num_threads = threads;
        options.tile_rows = tile_rows;
        options.prefilter = c.prefilter;
        SimilarityIndex index(sketch, estimator, options);
        index.Rebuild(candidates);
        ExpectPairsIdentical(index.AllPairsAbove(c.tau), reference,
                             "index " + c.Name() +
                                 " threads=" + std::to_string(threads) +
                                 " tile_rows=" + std::to_string(tile_rows));
      }
    }

    for (const uint32_t shards : {1u, 4u}) {
      ShardedVosConfig config = PlannerConfig(shards);
      config.base.k = 64;
      config.base.m = 1 << 14;
      ShardedVosSketch sharded(config, users, estimator);
      sharded.UpdateBatch(elements.data(), elements.size());
      std::vector<QueryPlanner::Pair> planner_reference;
      {
        QueryPlanner probe(sharded, estimator);
        probe.Rebuild(candidates);
        planner_reference = probe.AllPairsAboveReference(c.tau);
      }
      ExpectHeavyTies(planner_reference, c);
      for (const unsigned threads : {1u, 2u, 8u}) {
        for (const size_t tile_rows : {size_t{1}, size_t{0}}) {
          QueryOptions options;
          options.num_threads = threads;
          options.tile_rows = tile_rows;
          options.prefilter = c.prefilter;
          QueryPlanner planner(sharded, estimator, options);
          planner.Rebuild(candidates);
          ExpectPairsIdentical(
              planner.AllPairsAbove(c.tau), planner_reference,
              "planner shards=" + std::to_string(shards) + " " + c.Name() +
                  " threads=" + std::to_string(threads) +
                  " tile_rows=" + std::to_string(tile_rows));
        }
      }
    }
  }
}

/// The factory-knob path into the tier: VosMethod::MakeIndex must build
/// its snapshot with the method's QueryOptions, so a tile_rows
/// configured at construction governs the scan (bit-identically).
TEST(PairScanTest, VosMethodMakeIndexHonorsTileKnob) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 27);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryOptions tiled_options;
  tiled_options.tile_rows = 7;  // deliberately odd: many partial tiles
  VosMethod tiled_method(IndexConfig(), users, {}, tiled_options);
  VosMethod plain_method(IndexConfig(), users);
  for (const Element& e : elements) {
    tiled_method.Update(e);
    plain_method.Update(e);
  }

  const auto plain = plain_method.MakeIndex(candidates);
  const auto exact_pairs = plain->AllPairsAbove(0.4);
  ASSERT_FALSE(exact_pairs.empty());

  const auto tiled = tiled_method.MakeIndex(candidates);
  EXPECT_EQ(tiled->query_options().tile_rows, 7u);
  ExpectPairsIdentical(tiled->AllPairsAbove(0.4), exact_pairs,
                       "MakeIndex tile_rows=7");
}

}  // namespace
}  // namespace vos::core
