// Tests for the shared tiled pair-scan tier (core/pair_scan.h).
//
// The tier's contract: QueryPlanner::AllPairsAbove, which runs every
// pass on the tier, is bit-identical to the scalar references for every
// tile size (1 row, the default, whole-pass), thread count and shard
// count, prefiltered (τ > 0 under clamping) or not. Tiles repartition
// the enumeration; they must never change a single bit of the output.
// Result order under heavy Ĵ ties is covered too, as are the 4×4 blocks'
// edges: tile sizes and candidate counts that are not multiples of 4,
// and windows whose ends differ between adjacent rows, where the scan
// must screen exactly the window pairs the optimizer counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/pair_scan.h"
#include "core/query_optimizer.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
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

/// The acceptance matrix: tile sizes {1 row, default, whole-pass} ×
/// threads {1, 8} × S ∈ {1, 4} × τ ∈ {0.4 (prefiltered), 0 (the
/// unprefiltered windows: every partner)}, bit-identical to the per-pair
/// EstimatePair reference (same-shard AND cross-shard passes go through
/// the tier's triangle and rectangle tiles respectively). At S = 1 the
/// one snapshot's own scalar oracle must agree as well.
TEST(PairScanTest, PlannerBitIdenticalAcrossTileSizesThreadsShards) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 5);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    for (const double tau : {0.4, 0.0}) {
      const std::string at = "shards=" + std::to_string(shards) +
                             " tau=" + std::to_string(tau);
      std::vector<QueryPlanner::Pair> reference;
      {
        QueryPlanner probe(sketch);
        probe.Rebuild(candidates);
        reference = probe.AllPairsAboveReference(tau);
        if (shards == 1) {
          ExpectPairsIdentical(
              probe.shard_index(0).AllPairsAboveReference(tau), reference,
              at + " snapshot oracle");
        }
      }
      ASSERT_FALSE(reference.empty()) << at;

      for (const size_t tile_rows : {size_t{1}, size_t{0}, size_t{1} << 20}) {
        for (const unsigned threads : {1u, 8u}) {
          QueryOptions options;
          options.tile_rows = tile_rows;
          options.num_threads = threads;
          QueryPlanner planner(sketch, {}, options);
          planner.Rebuild(candidates);
          ExpectPairsIdentical(planner.AllPairsAbove(tau), reference,
                               at + " tile_rows=" + std::to_string(tile_rows) +
                                   " threads=" + std::to_string(threads));
        }
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

/// One result-order case: threshold and estimator clamp.
struct TieCase {
  double tau;
  bool clamp;
  std::string Name() const {
    return "tau=" + std::to_string(tau) + " clamp=" + std::to_string(clamp);
  }
};

const TieCase kTieCases[] = {
    {0.3, true},    // range buckets, prefiltered
    {0.0, true},    // τ ≤ 0: the Ĵ = 0 tie group, unprefiltered
    {-1.0, false},  // Ĵ < 0 and Ĵ > 1 fill both end buckets
    {0.3, false},   // unclamped: prefilter gated off, Ĵ > 1 kept
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

/// The result order under heavy Ĵ ties: identical to the reference —
/// same pairs, same order, same bits — across threads {1, 2, 8} ×
/// tile_rows {1, adaptive} × S {1, 4}.
TEST(PairScanTest, HeavyTieOrderBitIdentical) {
  const UserId users = 240;
  const std::vector<Element> elements = TieStream(users, 17);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const TieCase& c : kTieCases) {
    VosEstimatorOptions estimator;
    estimator.clamp_to_feasible = c.clamp;
    for (const uint32_t shards : {1u, 4u}) {
      ShardedVosConfig config = PlannerConfig(shards);
      config.base.k = 64;
      config.base.m = 1 << 14;
      ShardedVosSketch sharded(config, users, estimator);
      sharded.UpdateBatch(elements.data(), elements.size());
      std::vector<QueryPlanner::Pair> reference;
      {
        QueryPlanner probe(sharded, estimator);
        probe.Rebuild(candidates);
        reference = probe.AllPairsAboveReference(c.tau);
      }
      ExpectHeavyTies(reference, c);
      for (const unsigned threads : {1u, 2u, 8u}) {
        for (const size_t tile_rows : {size_t{1}, size_t{0}}) {
          QueryOptions options;
          options.num_threads = threads;
          options.tile_rows = tile_rows;
          QueryPlanner planner(sharded, estimator, options);
          planner.Rebuild(candidates);
          ExpectPairsIdentical(
              planner.AllPairsAbove(c.tau), reference,
              "shards=" + std::to_string(shards) + " " + c.Name() +
                  " threads=" + std::to_string(threads) +
                  " tile_rows=" + std::to_string(tile_rows));
        }
      }
    }
  }
}

// ------------------------------------------------- 4×4 block edges

/// Nested-set stream with spread cardinalities: user u holds the first
/// 8 + 3u items of its 16-user group's pool, so same-group pairs have
/// J = the ratio of their cardinalities (spread over (0, 1)) and other
/// pairs share nothing. At τ = 0.5 row p's one-sided window ends near
/// the row whose cardinality is twice card_p: adjacent rows' window ends
/// differ by about two rows, so they fall inside 4×4 blocks rather than
/// on their edges, on the triangle and (cross-shard) rectangle passes.
std::vector<Element> SpreadStream(UserId users) {
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    const ItemId base = static_cast<ItemId>((u / 16) * 10000);
    for (size_t i = 0; i < 8 + 3 * size_t{u}; ++i) {
      elements.push_back({u, static_cast<ItemId>(base + i), Action::kInsert});
    }
  }
  return elements;
}

constexpr double kSpreadTau = 0.5;

/// Candidate counts 1, 2 and 3 above a multiple of 4 (leftover rows
/// after the last 4-row block) × tile edges 5, 6, 7 (blocks straddle
/// tile edges and diagonal tiles) plus 1 row and the adaptive default,
/// at 1 and 2 threads and S ∈ {1, 4} (the single triangle, and triangles
/// plus cross-shard rectangles): bit-identical to the reference.
TEST(PairScanTest, BlockEdgesBitIdentical) {
  const UserId users = 67;
  const std::vector<Element> elements = SpreadStream(users);
  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosSketch sharded(PlannerConfig(shards), users);
    sharded.UpdateBatch(elements.data(), elements.size());
    for (const UserId n : {UserId{65}, UserId{66}, UserId{67}}) {
      std::vector<UserId> candidates;
      for (UserId u = 0; u < n; ++u) candidates.push_back(u);
      std::vector<QueryPlanner::Pair> reference;
      {
        QueryPlanner probe(sharded);
        probe.Rebuild(candidates);
        reference = probe.AllPairsAboveReference(kSpreadTau);
      }
      ASSERT_GT(reference.size(), 50u) << "S=" << shards << " n=" << n;

      for (const size_t tile_rows :
           {size_t{1}, size_t{5}, size_t{6}, size_t{7}, size_t{0}}) {
        for (const unsigned threads : {1u, 2u}) {
          QueryOptions options;
          options.tile_rows = tile_rows;
          options.num_threads = threads;
          QueryPlanner planner(sharded, {}, options);
          planner.Rebuild(candidates);
          ExpectPairsIdentical(
              planner.AllPairsAbove(kSpreadTau), reference,
              "S=" + std::to_string(shards) + " n=" + std::to_string(n) +
                  " tile_rows=" + std::to_string(tile_rows) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

/// The scan screens exactly the pairs inside their own row's window: a
/// 4×4 block computes distances over the union of its rows' windows, and
/// a pair outside its row's window would still be rejected by the
/// estimator (the cardinality bound is sound), so only the screened
/// count shows whether the per-row masks hold. It must equal the
/// optimizer's window counts on a triangle pass and on a rectangle pass
/// (the snapshot against itself), for every tile edge.
TEST(PairScanTest, ScreensExactlyTheWindowPairs) {
  const UserId users = 67;
  const std::vector<Element> elements = SpreadStream(users);
  VosSketch sketch(IndexConfig(), users);
  for (const Element& e : elements) sketch.Update(e);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  SimilarityIndex index(sketch);
  index.Rebuild(candidates);
  const std::vector<uint32_t>& cards = index.row_cardinalities();
  const size_t n = cards.size();

  // Precondition: adjacent rows whose window ends differ inside the
  // matrix, so a mask-free 4×4 block would screen extra pairs.
  const double tau_frac = kSpreadTau / (1.0 + kSpreadTau);
  const auto window_end = [&](size_t p) {
    size_t end = p + 1;
    while (end < n && !scan::CardinalityFail(cards[p], cards[p] + cards[end],
                                             tau_frac)) {
      ++end;
    }
    return end;
  };
  size_t ragged = 0;
  for (size_t p = 0; p + 1 < n; ++p) {
    const size_t end = window_end(p);
    if (end < n && end != window_end(p + 1)) ++ragged;
  }
  ASSERT_GT(ragged, n / 4);

  const VosEstimator estimator(sketch.config().k);
  const std::vector<double> table = estimator.BuildLogAlphaTable();
  std::atomic<uint64_t> screened{0};
  pair_scan::ScanParams params;
  params.jaccard_threshold = kSpreadTau;
  params.prefilter = true;
  params.estimator = &estimator;
  params.log_alpha_table = &table;
  params.screened_pairs = &screened;

  const pair_scan::MatrixView view{&index.matrix(), cards.data()};
  for (const bool triangle : {true, false}) {
    pair_scan::Pass pass;
    pass.a = pass.b = view;
    pass.triangle = triangle;
    pass.log_beta_pair = index.log_beta_term();
    pass.emit = [](size_t p, size_t q, const PairEstimate& est,
                   std::vector<scan::Pair>& out) {
      out.push_back({static_cast<UserId>(p), static_cast<UserId>(q),
                     est.common, est.jaccard});
    };
    const size_t want =
        triangle ? optimizer::TriangleWindowPairs(cards.data(), n, kSpreadTau,
                                                  true)
                 : optimizer::RectangleWindowPairs(cards.data(), n,
                                                   cards.data(), n,
                                                   kSpreadTau, true);
    ASSERT_LT(want, triangle ? n * (n - 1) / 2 : n * n);
    for (const size_t tile_rows :
         {size_t{1}, size_t{5}, size_t{6}, size_t{7}, size_t{0}}) {
      screened.store(0, std::memory_order_relaxed);
      const std::vector<scan::Pair> pairs =
          pair_scan::RunPasses({pass}, params, tile_rows, 2);
      EXPECT_FALSE(pairs.empty());
      EXPECT_EQ(screened.load(std::memory_order_relaxed), want)
          << "triangle=" << triangle << " tile_rows=" << tile_rows;
    }
  }
}

}  // namespace
}  // namespace vos::core
