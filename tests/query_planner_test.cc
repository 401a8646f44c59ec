// Tests for the shard-aware query tier: QueryPlanner must return exactly
// the pair set of the per-pair ShardedVosSketch::EstimatePair reference —
// bit-identical estimates on same-shard AND cross-shard pairs (the §IV
// correction generalized to (1−2β_A)(1−2β_B)) — for every shard count,
// planner thread count, threshold and prefilter setting; TopK must match
// its brute-force reference under the shared-bound pruning; and the
// incremental Refresh path must land on the same snapshots as a fresh
// Rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
#include "core/vos_estimator.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Community stream: every 4-user group's first two members share 75% of
/// their items (so AllPairsAbove has planted hits in and across shards),
/// everyone else is disjoint; ~20% of inserts get a matching delete.
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

ShardedVosConfig PlannerConfig(uint32_t shards, uint32_t k = 512,
                               uint64_t m = 1 << 16) {
  ShardedVosConfig config;
  config.base.k = k;
  config.base.m = m;
  config.base.seed = 91;
  config.num_shards = shards;
  return config;
}

void ExpectPairsIdentical(const std::vector<QueryPlanner::Pair>& got,
                          const std::vector<QueryPlanner::Pair>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u, want[i].u) << context << " pair " << i;
    EXPECT_EQ(got[i].v, want[i].v) << context << " pair " << i;
    EXPECT_EQ(got[i].common, want[i].common) << context << " pair " << i;
    EXPECT_EQ(got[i].jaccard, want[i].jaccard) << context << " pair " << i;
  }
}

void ExpectEntriesIdentical(const std::vector<QueryPlanner::Entry>& got,
                            const std::vector<QueryPlanner::Entry>& want,
                            const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].user, want[i].user) << context << " entry " << i;
    EXPECT_EQ(got[i].common, want[i].common) << context << " entry " << i;
    EXPECT_EQ(got[i].jaccard, want[i].jaccard) << context << " entry " << i;
  }
}

/// The acceptance matrix: same pair set and bit-identical estimates as
/// the per-pair reference for S ∈ {1, 2, 4} × planner threads ∈ {1, 8} ×
/// τ ∈ {0.2, 0.5}, with and without the prefilter.
TEST(QueryPlannerTest, AllPairsMatchesReferenceAcrossShardsAndThreads) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 7);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());

    // Reference once per (shards, τ): it is thread- and prefilter-free.
    for (const double tau : {0.2, 0.5}) {
      std::vector<QueryPlanner::Pair> reference;
      {
        QueryPlanner probe(sketch);
        probe.Rebuild(candidates);
        reference = probe.AllPairsAboveReference(tau);
      }
      EXPECT_FALSE(reference.empty())
          << "shards=" << shards << " tau=" << tau
          << ": stream must plant pairs above the threshold";
      // Cross-shard coverage: with S > 1 some planted pairs must split.
      if (shards > 1) {
        const bool has_cross =
            std::any_of(reference.begin(), reference.end(),
                        [&](const QueryPlanner::Pair& p) {
                          return sketch.ShardOf(p.u) != sketch.ShardOf(p.v);
                        });
        EXPECT_TRUE(has_cross) << "shards=" << shards << " tau=" << tau;
      }
      for (const unsigned threads : {1u, 8u}) {
        for (const bool prefilter : {true, false}) {
          QueryOptions options;
          options.num_threads = threads;
          options.prefilter = prefilter;
          options.block_size = 16;  // several cross-shard blocks per pass
          QueryPlanner planner(sketch, {}, options);
          planner.Rebuild(candidates);
          ExpectPairsIdentical(
              planner.AllPairsAbove(tau), reference,
              "shards=" + std::to_string(shards) +
                  " threads=" + std::to_string(threads) +
                  " tau=" + std::to_string(tau) +
                  " prefilter=" + std::to_string(prefilter));
        }
      }
    }
  }
}

/// With one shard the planner IS the single global index: same pair set
/// and bit-identical estimates as SimilarityIndex over an equivalent
/// standalone VosSketch.
TEST(QueryPlannerTest, SingleShardEqualsGlobalSimilarityIndex) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 11);
  const ShardedVosConfig config = PlannerConfig(1);

  ShardedVosSketch sharded(config, users);
  VosSketch plain(ShardedVosSketch::ShardConfig(config, 1 - 1), users);
  for (const Element& e : elements) {
    sharded.Update(e);
    plain.Update(e);
  }

  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryPlanner planner(sharded);
  planner.Rebuild(candidates);
  SimilarityIndex index(plain);
  index.Rebuild(candidates);

  const double tau = 0.3;
  const auto from_planner = planner.AllPairsAbove(tau);
  const auto from_index = index.AllPairsAbove(tau);
  ASSERT_EQ(from_planner.size(), from_index.size());
  for (size_t i = 0; i < from_planner.size(); ++i) {
    // The planner canonicalizes u < v by id; the candidate list is
    // id-sorted here, so the index emits the same orientation.
    EXPECT_EQ(from_planner[i].u, from_index[i].u);
    EXPECT_EQ(from_planner[i].v, from_index[i].v);
    EXPECT_EQ(from_planner[i].common, from_index[i].common);
    EXPECT_EQ(from_planner[i].jaccard, from_index[i].jaccard);
  }
}

/// Cross-shard estimates follow the documented model exactly:
/// d = Hamming(Ô_u, Ô_v) over the two shards' reconstructions and the
/// mean of the two shards' log-beta terms — i.e. (1−2β_A)(1−2β_B) where
/// the single-sketch estimator squares one β.
TEST(QueryPlannerTest, CrossShardEstimatesMatchTwoBetaModel) {
  const UserId users = 48;
  const std::vector<Element> elements = CommunityStream(users, 50, 13);
  ShardedVosSketch sketch(PlannerConfig(4), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  QueryPlanner planner(sketch);
  planner.Rebuild(candidates);

  const auto pairs = planner.AllPairsAbove(0.2);
  const VosEstimator estimator(sketch.config().base.k);
  size_t cross_checked = 0;
  for (const auto& pair : pairs) {
    const uint32_t su = sketch.ShardOf(pair.u);
    const uint32_t sv = sketch.ShardOf(pair.v);
    if (su == sv) continue;
    ++cross_checked;
    const VosSketch& shard_u = sketch.shard(su);
    const VosSketch& shard_v = sketch.shard(sv);
    const BitVector du = shard_u.ExtractUserSketch(sketch.LocalIdOf(pair.u));
    const BitVector dv = shard_v.ExtractUserSketch(sketch.LocalIdOf(pair.v));
    const double alpha = static_cast<double>(du.HammingDistance(dv)) /
                         sketch.config().base.k;
    const PairEstimate expected = estimator.EstimateFromLogTerms(
        shard_u.Cardinality(sketch.LocalIdOf(pair.u)),
        shard_v.Cardinality(sketch.LocalIdOf(pair.v)),
        estimator.LogAlphaTerm(alpha),
        0.5 * (estimator.LogBetaTerm(shard_u.beta()) +
               estimator.LogBetaTerm(shard_v.beta())));
    EXPECT_EQ(pair.common, expected.common)
        << "pair (" << pair.u << "," << pair.v << ")";
    EXPECT_EQ(pair.jaccard, expected.jaccard);
  }
  EXPECT_GT(cross_checked, 0u);
}

TEST(QueryPlannerTest, TopKMatchesReferenceWithSharedBoundPruning) {
  const UserId users = 60;
  const std::vector<Element> elements = CommunityStream(users, 50, 17);
  for (const uint32_t shards : {1u, 3u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    std::vector<UserId> candidates;
    // Leave a few users out of the candidate set so TopK exercises the
    // live-extraction query path too.
    for (UserId u = 0; u < users - 4; ++u) candidates.push_back(u);

    for (const unsigned threads : {1u, 8u}) {
      QueryOptions options;
      options.num_threads = threads;
      QueryPlanner planner(sketch, {}, options);
      planner.Rebuild(candidates);
      for (const UserId query : {UserId{0}, UserId{5}, UserId{users - 2}}) {
        for (const size_t k : {size_t{1}, size_t{5}, size_t{1000}}) {
          ExpectEntriesIdentical(
              planner.TopK(query, k), planner.TopKReference(query, k),
              "shards=" + std::to_string(shards) +
                  " threads=" + std::to_string(threads) +
                  " query=" + std::to_string(query) +
                  " k=" + std::to_string(k));
        }
      }
    }
  }
}

/// Refresh() drains dirty state shard-locally and must land on exactly
/// the snapshots a fresh Rebuild would produce — across churn rounds and
/// including a round where every candidate is dirty.
/// Incremental Refresh against a fresh Rebuild for S ∈ {1, 2, 4} ×
/// planner threads T ∈ {1, 2, 4}: each shard index builds its snapshot
/// with max(1, ⌊T/S⌋) workers of its own. The thread count also changes
/// between Rebuild and Refresh, as ShardedVosMethod::SetQueryThreads
/// does through set_num_threads; the split must follow it.
TEST(QueryPlannerTest, IncrementalRefreshMatchesFreshRebuild) {
  const UserId users = 56;
  const std::vector<Element> elements = CommunityStream(users, 40, 19);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  const auto expect_split = [](const QueryPlanner& planner, unsigned threads,
                               uint32_t shards, const std::string& context) {
    EXPECT_EQ(planner.IndexThreads(), std::max(1u, threads / shards))
        << context;
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(planner.shard_index(s).query_options().num_threads,
                planner.IndexThreads())
          << context << " shard " << s;
    }
  };

  for (const uint32_t shards : {1u, 2u, 4u}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      const std::string context =
          "S=" + std::to_string(shards) + " T=" + std::to_string(threads);
      ShardedVosSketch sketch(PlannerConfig(shards, 512, 1 << 14), users);
      sketch.UpdateBatch(elements.data(), elements.size());
      QueryOptions incremental;
      incremental.num_threads = threads;
      incremental.incremental = true;
      QueryPlanner refreshed(sketch, {}, incremental);
      expect_split(refreshed, threads, shards, context);
      refreshed.Rebuild(candidates);

      ItemId next_item = 1 << 29;
      for (const UserId touched : {UserId{2}, UserId{33}}) {
        sketch.Update({touched, next_item++, Action::kInsert});
        sketch.Update({touched, next_item++, Action::kInsert});
      }
      refreshed.Refresh();

      QueryPlanner rebuilt(sketch, {}, QueryOptions{});
      rebuilt.Rebuild(candidates);
      ExpectPairsIdentical(refreshed.AllPairsAbove(0.25),
                           rebuilt.AllPairsAbove(0.25),
                           context + " small churn");
      ExpectEntriesIdentical(refreshed.TopK(2, 8), rebuilt.TopK(2, 8),
                             context + " small churn TopK");

      // New thread count between snapshots, then touch everyone: every
      // shard patches all of its rows — results must not change.
      const unsigned next_threads = threads == 4 ? 1 : 4;
      refreshed.set_num_threads(next_threads);
      expect_split(refreshed, next_threads, shards, context + " reset");
      for (UserId u = 0; u < users; ++u) {
        sketch.Update({u, next_item++, Action::kInsert});
      }
      refreshed.Refresh();
      for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
        EXPECT_EQ(refreshed.shard_index(s).last_refresh_dirty_fraction(), 1.0)
            << context << " shard " << s;
      }
      rebuilt.Rebuild(candidates);
      ExpectPairsIdentical(refreshed.AllPairsAbove(0.25),
                           rebuilt.AllPairsAbove(0.25),
                           context + " full churn");

      // A Rebuild under the new split, then one more refresh.
      refreshed.Rebuild(candidates);
      for (UserId u = 0; u < users; u += 3) {
        sketch.Update({u, next_item++, Action::kInsert});
      }
      refreshed.Refresh();
      rebuilt.Rebuild(candidates);
      ExpectPairsIdentical(refreshed.AllPairsAbove(0.25),
                           rebuilt.AllPairsAbove(0.25),
                           context + " rebuilt at new split");
      ExpectEntriesIdentical(refreshed.TopK(33, 8), rebuilt.TopK(33, 8),
                             context + " rebuilt at new split TopK");
    }
  }
}

TEST(QueryPlannerTest, EmptyAndDegenerateInputs) {
  const UserId users = 16;
  ShardedVosSketch sketch(PlannerConfig(4), users);
  QueryPlanner planner(sketch);
  EXPECT_TRUE(planner.AllPairsAbove(0.5).empty());
  EXPECT_TRUE(planner.TopK(0, 5).empty());

  planner.Rebuild({3});  // one candidate: no pairs, TopK excludes self
  EXPECT_TRUE(planner.AllPairsAbove(0.1).empty());
  EXPECT_TRUE(planner.TopK(3, 5).empty());
  EXPECT_TRUE(planner.TopK(3, 0).empty());
}

}  // namespace
}  // namespace vos::core
