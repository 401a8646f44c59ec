// Tests for the shard-aware query tier: QueryPlanner must return exactly
// the pair set of the per-pair ShardedVosSketch::EstimatePair reference —
// bit-identical estimates on same-shard AND cross-shard pairs (the §IV
// correction generalized to (1−2β_A)(1−2β_B)) — for every shard count,
// planner thread count, tile size and threshold, and at S = 1 the shard
// snapshot's own scalar oracle; EstimatePair must equal the sketch's
// per-pair estimate whether both, one or neither user is a candidate;
// TopK must match its brute-force reference under the running-bound
// screens, ties at the cut included; a query id beyond num_users must
// abort; the incremental Refresh path must land on the same snapshots as
// a fresh Rebuild; and PlanAllPairs must report each pass's window pair
// count.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/query_optimizer.h"
#include "core/query_planner.h"
#include "core/scan_common.h"
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
/// τ ∈ {0.2, 0.5} × tile_rows ∈ {1, 7, 64, adaptive}.
TEST(QueryPlannerTest, AllPairsMatchesReferenceAcrossShardsAndThreads) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 7);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());

    // Reference once per (shards, τ): it is thread-free.
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
        // 0 = adaptive (one tile per pass here); the others split every
        // pass into several tiles, down to single rows.
        for (const size_t tile_rows : {1u, 7u, 64u, 0u}) {
          QueryOptions options;
          options.num_threads = threads;
          options.tile_rows = tile_rows;
          QueryPlanner planner(sketch, {}, options);
          planner.Rebuild(candidates);
          ExpectPairsIdentical(planner.AllPairsAbove(tau), reference,
                               "shards=" + std::to_string(shards) +
                                   " threads=" + std::to_string(threads) +
                                   " tau=" + std::to_string(tau) +
                                   " tile_rows=" + std::to_string(tile_rows));
        }
      }
    }
  }
}

/// With one shard the planner's scan answers exactly as the scalar oracle
/// over its one snapshot: same pairs, same order, same bits, prefiltered
/// (τ > 0) and not (τ = 0). At S = 1 local ids are the global ids, and
/// the id-sorted candidate list gives the oracle the planner's u < v
/// orientation.
TEST(QueryPlannerTest, SingleShardEqualsShardIndexReference) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 11);
  ShardedVosSketch sketch(PlannerConfig(1), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  QueryPlanner planner(sketch);
  planner.Rebuild(candidates);
  for (const double tau : {0.0, 0.3}) {
    ExpectPairsIdentical(planner.AllPairsAbove(tau),
                         planner.shard_index(0).AllPairsAboveReference(tau),
                         "tau=" + std::to_string(tau));
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

/// EstimatePair reads two snapshot rows when both users are candidates
/// and the live sketch otherwise; either way it is bit-equal to
/// ShardedVosSketch::EstimatePair, same-shard and cross-shard.
TEST(QueryPlannerTest, EstimatePairMatchesSketchForEveryPairKind) {
  const UserId users = 48;
  const std::vector<Element> elements = CommunityStream(users, 50, 19);
  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    std::vector<UserId> candidates;
    for (UserId u = 0; u < users; u += 2) candidates.push_back(u);
    QueryPlanner planner(sketch);
    planner.Rebuild(candidates);
    size_t both = 0, mixed = 0, neither = 0;
    for (UserId u = 0; u < users; ++u) {
      for (UserId v = u + 1; v < users; ++v) {
        const PairEstimate got = planner.EstimatePair(u, v);
        const PairEstimate want = sketch.EstimatePair(u, v);
        EXPECT_EQ(got.common, want.common)
            << "S=" << shards << " (" << u << "," << v << ")";
        EXPECT_EQ(got.jaccard, want.jaccard)
            << "S=" << shards << " (" << u << "," << v << ")";
        const int in_set = (u % 2 == 0) + (v % 2 == 0);
        (in_set == 2 ? both : in_set == 1 ? mixed : neither) += 1;
      }
    }
    EXPECT_GT(both, 0u);
    EXPECT_GT(mixed, 0u);
    EXPECT_GT(neither, 0u);
  }
}

TEST(QueryPlannerTest, TopKMatchesReferenceWithRunningBoundScreens) {
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

/// Users 0..23 hold the same 60 items, user 24 holds 30 of them plus 30
/// of its own, and users 25.. are noise of assorted sizes. The array is
/// large, so most group members carry no contamination and share one
/// digest: against either query they tie on Ĵ.
std::vector<Element> TieStream(UserId users) {
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    if (u < 24) {
      for (ItemId i = 0; i < 60; ++i) elements.push_back({u, i, Action::kInsert});
    } else if (u == 24) {
      for (ItemId i = 0; i < 30; ++i) {
        elements.push_back({u, i, Action::kInsert});
        elements.push_back({u, 1000 + i, Action::kInsert});
      }
    } else {
      const ItemId base = 100000 * u;
      for (ItemId i = 0; i < 10 + 7 * (u % 13); ++i) {
        elements.push_back({u, i < 20 ? i : base + i, Action::kInsert});
      }
    }
  }
  return elements;
}

/// k that puts the cut inside the largest run of equal Ĵ > 0 in a full
/// `ranking` (its middle), or 0 when there is no such run.
size_t CutInsideTie(const std::vector<QueryPlanner::Entry>& ranking) {
  size_t best_begin = 0, best_size = 0;
  for (size_t a = 0; a < ranking.size();) {
    size_t b = a + 1;
    while (b < ranking.size() && ranking[b].jaccard == ranking[a].jaccard) ++b;
    if (b - a > best_size && ranking[a].jaccard > 1e-3) {
      best_begin = a;
      best_size = b - a;
    }
    a = b;
  }
  return best_size < 2 ? 0 : best_begin + best_size / 2;
}

/// A tie at the k-th best Ĵ: the screens run with τ = that Ĵ and must
/// keep every tied row, so only the user-id tie-break decides which
/// members make the cut. S ∈ {1, 4}, clamping on (screened) and off
/// (unscreened), against the per-pair reference.
TEST(QueryPlannerTest, TopKTieAtTheCutMatchesReference) {
  const UserId users = 64;
  const std::vector<Element> elements = TieStream(users);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  for (const bool clamp : {true, false}) {
    VosEstimatorOptions estimator_options;
    estimator_options.clamp_to_feasible = clamp;
    for (const uint32_t shards : {1u, 4u}) {
      ShardedVosSketch sketch(PlannerConfig(shards, 512, 1 << 24), users,
                              estimator_options);
      sketch.UpdateBatch(elements.data(), elements.size());
      QueryPlanner planner(sketch, estimator_options);
      planner.Rebuild(candidates);
      for (const UserId query : {UserId{0}, UserId{24}}) {
        const std::string context = "clamp=" + std::to_string(clamp) +
                                    " S=" + std::to_string(shards) +
                                    " query=" + std::to_string(query);
        const size_t k =
            CutInsideTie(planner.TopKReference(query, candidates.size()));
        ASSERT_GT(k, 0u) << context << ": no tie to cut";
        ExpectEntriesIdentical(planner.TopK(query, k),
                               planner.TopKReference(query, k),
                               context + " k=" + std::to_string(k));
      }
    }
  }
}

/// A query id beyond num_users aborts at TopK's entry with one message at
/// every shard count, instead of reading past the per-user state (S = 1)
/// or tripping the shard map's check (S > 1).
TEST(QueryPlannerDeathTest, TopKQueryBeyondNumUsersAborts) {
  const UserId users = 16;
  for (const uint32_t shards : {1u, 2u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    QueryPlanner planner(sketch);
    planner.Rebuild({0, 1, 2, 3});
    EXPECT_DEATH(planner.TopK(users, 1), "TopK query user") << shards;
    EXPECT_DEATH(planner.TopK(400000000, 1), "TopK query user") << shards;
  }
}

/// Refresh() drains dirty state shard-locally and must land on exactly
/// the snapshots a fresh Rebuild would produce — across churn rounds and
/// including a round where every candidate is dirty.
/// Incremental Refresh against a fresh Rebuild for S ∈ {1, 2, 4} ×
/// planner threads T ∈ {1, 2, 4}: each shard's extraction runs with
/// max(1, ⌊T/S⌋) workers of its own. The first Refresh after a Rebuild
/// captures incremental state, the later ones patch. The thread count
/// also changes between Rebuild and Refresh, as
/// ShardedVosMethod::SetQueryThreads does through set_num_threads; the
/// split must follow it.
TEST(QueryPlannerTest, IncrementalRefreshMatchesFreshRebuild) {
  const UserId users = 56;
  const std::vector<Element> elements = CommunityStream(users, 40, 19);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  const auto expect_split = [](const QueryPlanner& planner, unsigned threads,
                               uint32_t shards, const std::string& context) {
    EXPECT_EQ(planner.IndexThreads(), std::max(1u, threads / shards))
        << context;
  };

  for (const uint32_t shards : {1u, 2u, 4u}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      const std::string context =
          "S=" + std::to_string(shards) + " T=" + std::to_string(threads);
      ShardedVosSketch sketch(PlannerConfig(shards, 512, 1 << 14), users);
      sketch.UpdateBatch(elements.data(), elements.size());
      QueryPlanner refreshed(sketch, {}, QueryOptions{threads});
      expect_split(refreshed, threads, shards, context);
      refreshed.Rebuild(candidates);
      EXPECT_FALSE(refreshed.incremental()) << context;
      refreshed.Refresh();  // captures: the Refreshes below patch
      EXPECT_TRUE(refreshed.incremental()) << context;

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

      // A Rebuild and a capture under the new split, then one more patch.
      refreshed.Rebuild(candidates);
      EXPECT_FALSE(refreshed.incremental()) << context;
      refreshed.Refresh();
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

      // Drift down: user 1 drops its planted overlap with user 0, so its
      // best neighbours after the refresh are far weaker than before.
      // TopK for it, for a never-clustered user and for two k must match
      // a fresh Rebuild.
      for (uint32_t c = 0; c < 30; ++c) {
        sketch.Update({1, c, Action::kDelete});
        sketch.Update({1, next_item++, Action::kInsert});
      }
      refreshed.Refresh();
      rebuilt.Rebuild(candidates);
      for (const UserId query : {UserId{1}, UserId{2}}) {
        for (const size_t k : {size_t{6}, size_t{12}}) {
          ExpectEntriesIdentical(refreshed.TopK(query, k),
                                 rebuilt.TopK(query, k),
                                 context + " drift TopK q=" +
                                     std::to_string(query) +
                                     " k=" + std::to_string(k));
        }
      }
    }
  }
}

/// PlanAllPairs feeds e2ebench's query_optimizer.window_pairs: one exact
/// report per pass AllPairsAbove runs (triangles with ≥ 2 rows, then
/// rectangles with two non-empty sides), each carrying the window pair
/// count of that pass's shard cardinalities — which bounds the pairs the
/// scan can emit.
TEST(QueryPlannerTest, PlanAllPairsReportsWindowPairsPerPass) {
  const UserId users = 48;
  const std::vector<Element> elements = CommunityStream(users, 40, 23);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner planner(sketch);
    planner.Rebuild(candidates);
    for (const double tau : {0.25, 0.5}) {
      const std::string context =
          "S=" + std::to_string(shards) + " tau=" + std::to_string(tau);
      const bool prefilter = scan::PrefilterApplies(true, tau);
      std::vector<size_t> want;
      for (uint32_t s = 0; s < shards; ++s) {
        const auto& cards = planner.shard_index(s).row_cardinalities();
        if (cards.size() < 2) continue;
        want.push_back(optimizer::TriangleWindowPairs(
            cards.data(), cards.size(), tau, prefilter));
      }
      for (uint32_t s = 0; s < shards; ++s) {
        const auto& cards_a = planner.shard_index(s).row_cardinalities();
        for (uint32_t t = s + 1; t < shards; ++t) {
          const auto& cards_b = planner.shard_index(t).row_cardinalities();
          if (cards_a.empty() || cards_b.empty()) continue;
          want.push_back(optimizer::RectangleWindowPairs(
              cards_a.data(), cards_a.size(), cards_b.data(), cards_b.size(),
              tau, prefilter));
        }
      }
      EXPECT_EQ(want.size(), shards + shards * (shards - 1) / 2) << context;

      const auto reports = planner.PlanAllPairs(tau);
      ASSERT_EQ(reports.size(), want.size()) << context;
      size_t window_pairs = 0;
      for (size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].stats.exact_pairs, want[i])
            << context << " pass " << i;
        EXPECT_EQ(reports[i].plan.kind, optimizer::PlanKind::kExact)
            << context << " pass " << i;
        window_pairs += reports[i].stats.exact_pairs;
      }
      EXPECT_GE(window_pairs, planner.AllPairsAbove(tau).size()) << context;
    }
  }
}

/// Before any Rebuild, after an empty one, and with one candidate (no
/// pairs; TopK excludes the query itself), at S ∈ {1, 4}.
TEST(QueryPlannerTest, EmptyAndDegenerateInputs) {
  const UserId users = 16;
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    for (ItemId i = 0; i < 20; ++i) elements.push_back({u, i, Action::kInsert});
  }
  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    QueryPlanner planner(sketch);
    EXPECT_TRUE(planner.AllPairsAbove(0.5).empty()) << shards;
    EXPECT_TRUE(planner.TopK(0, 5).empty()) << shards;

    planner.Rebuild({});
    EXPECT_TRUE(planner.AllPairsAbove(0.0).empty()) << shards;
    EXPECT_TRUE(planner.TopK(0, 5).empty()) << shards;

    planner.Rebuild({3});
    EXPECT_TRUE(planner.AllPairsAbove(0.0).empty()) << shards;
    EXPECT_TRUE(planner.TopK(3, 5).empty()) << shards;
    EXPECT_TRUE(planner.TopK(3, 0).empty()) << shards;
  }
}

}  // namespace
}  // namespace vos::core
