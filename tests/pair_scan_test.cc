// Tests for the shared tiled pair-scan tier (core/pair_scan.h).
//
// The tier's contract has two halves:
//
//   * The EXACT tiled path is bit-identical to the scalar references in
//     both call sites — SimilarityIndex::AllPairsAbove and
//     QueryPlanner::AllPairsAbove — for every tile size (1 row, the
//     default, whole-pass), thread count, shard count and prefilter
//     setting. Tiles repartition the enumeration; they must never change
//     a single bit of the output.
//
//   * The BANDED path (QueryOptions::banding_bands > 0) returns a subset
//     of the exact result whose surviving pairs carry bit-identical
//     estimates (precision 1 by construction), with recall measurable
//     against the exact pass — asserted here against a planted-overlap
//     floor on a community stream.
//
// Also covered: BandingTable candidate generation against brute force,
// band-count clamping, and the TopK warm-start (explicit seed and
// planner-held), which must be bit-identical to a cold start whether the
// seed is loose, exact, or over-tight (the over-pruned case must fall
// back to a cold rerun).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/digest_matrix.h"
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

void ExpectEntriesIdentical(const std::vector<scan::Entry>& got,
                            const std::vector<scan::Entry>& want,
                            const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].user, want[i].user) << context << " entry " << i;
    EXPECT_EQ(got[i].common, want[i].common) << context << " entry " << i;
    EXPECT_EQ(got[i].jaccard, want[i].jaccard) << context << " entry " << i;
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

// ------------------------------------------------------ banding tables

uint64_t ReferenceBandKey(const DigestMatrix& matrix, size_t row,
                          uint32_t band, uint32_t rows_per_band) {
  uint64_t key = 0;
  for (uint32_t j = 0; j < rows_per_band; ++j) {
    const uint32_t bit = band * rows_per_band + j;
    const uint64_t word = matrix.Row(row)[bit >> 6];
    key |= ((word >> (bit & 63)) & 1) << j;
  }
  return key;
}

DigestMatrix RandomMatrix(uint32_t k, size_t rows, uint64_t seed) {
  DigestMatrix matrix(k, rows);
  Rng rng(seed);
  const size_t words = DigestMatrix::WordsPerRow(k);
  for (size_t r = 0; r < rows; ++r) {
    uint64_t* row = matrix.MutableRow(r);
    for (size_t w = 0; w < words; ++w) {
      // Sparse-ish rows so band-key collisions actually occur.
      row[w] = rng.NextU64() & rng.NextU64() & rng.NextU64();
    }
    const uint32_t tail = k & 63;
    if (tail != 0) row[words - 1] &= (uint64_t{1} << tail) - 1;
  }
  return matrix;
}

TEST(PairScanTest, BandingTriangleCandidatesMatchBruteForce) {
  const uint32_t k = 192;
  const uint32_t bands = 6;
  const uint32_t rows_per_band = 7;  // spans word boundaries at band 9*7=63
  const size_t rows = 40;
  const DigestMatrix matrix = RandomMatrix(k, rows, 77);
  const pair_scan::BandingTable table(matrix, bands, rows_per_band);
  ASSERT_EQ(table.bands(), bands);

  std::vector<std::pair<uint32_t, uint32_t>> expected;
  for (uint32_t p = 0; p < rows; ++p) {
    for (uint32_t q = p + 1; q < rows; ++q) {
      for (uint32_t b = 0; b < bands; ++b) {
        if (ReferenceBandKey(matrix, p, b, rows_per_band) ==
            ReferenceBandKey(matrix, q, b, rows_per_band)) {
          expected.push_back({p, q});
          break;
        }
      }
    }
  }
  const auto got = table.TriangleCandidates();
  ASSERT_FALSE(got.empty()) << "sparse rows must collide somewhere";
  EXPECT_EQ(got, expected);
}

TEST(PairScanTest, BandingRectangleCandidatesMatchBruteForce) {
  const uint32_t k = 192;
  const uint32_t bands = 8;
  const uint32_t rows_per_band = 6;
  const DigestMatrix ma = RandomMatrix(k, 30, 78);
  const DigestMatrix mb = RandomMatrix(k, 26, 79);
  const pair_scan::BandingTable ta(ma, bands, rows_per_band);
  const pair_scan::BandingTable tb(mb, bands, rows_per_band);

  std::vector<std::pair<uint32_t, uint32_t>> expected;
  for (uint32_t p = 0; p < ma.rows(); ++p) {
    for (uint32_t q = 0; q < mb.rows(); ++q) {
      for (uint32_t b = 0; b < bands; ++b) {
        if (ReferenceBandKey(ma, p, b, rows_per_band) ==
            ReferenceBandKey(mb, q, b, rows_per_band)) {
          expected.push_back({p, q});
          break;
        }
      }
    }
  }
  std::sort(expected.begin(), expected.end());
  const auto got = pair_scan::BandingTable::RectangleCandidates(ta, tb);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, expected);
}

TEST(PairScanTest, BandingClampsBandCountToDigest) {
  const DigestMatrix matrix = RandomMatrix(512, 8, 80);
  const pair_scan::BandingTable table(matrix, 1000, 64);
  EXPECT_EQ(table.bands(), 512u / 64u);  // bands · rows_per_band ≤ k
  const pair_scan::BandingTable exact_fit(matrix, 64, 8);
  EXPECT_EQ(exact_fit.bands(), 64u);
}

// ------------------------------------------- banded scans: the contract

/// Banded result ⊆ exact result with bit-identical estimates (precision
/// 1), and recall over the exact pass ≥ the planted-overlap floor — on
/// the single index.
TEST(PairScanTest, IndexBandingSubsetExactEstimatesAndRecallFloor) {
  const UserId users = 96;
  const std::vector<Element> elements = CommunityStream(users, 60, 9);
  VosSketch sketch(IndexConfig(), users);
  for (const Element& e : elements) sketch.Update(e);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  SimilarityIndex exact(sketch);
  exact.Rebuild(candidates);
  const auto exact_pairs = exact.AllPairsAbove(0.4);
  ASSERT_GE(exact_pairs.size(), users / 6)
      << "most 4-user groups plant a pair above τ";

  QueryOptions banded_options;
  banded_options.banding_bands = 32;
  banded_options.banding_rows_per_band = 4;
  banded_options.num_threads = 4;
  SimilarityIndex banded(sketch, {}, banded_options);
  banded.Rebuild(candidates);
  ASSERT_NE(banded.banding_table(), nullptr);
  const auto banded_pairs = banded.AllPairsAbove(0.4);

  std::map<std::pair<UserId, UserId>, std::pair<double, double>> exact_by_pair;
  for (const auto& pair : exact_pairs) {
    exact_by_pair[{pair.u, pair.v}] = {pair.common, pair.jaccard};
  }
  for (const auto& pair : banded_pairs) {
    const auto it = exact_by_pair.find({pair.u, pair.v});
    ASSERT_NE(it, exact_by_pair.end())
        << "banded pair (" << pair.u << "," << pair.v
        << ") not in the exact result — precision must be 1";
    EXPECT_EQ(pair.common, it->second.first);
    EXPECT_EQ(pair.jaccard, it->second.second);
  }
  const double recall = static_cast<double>(banded_pairs.size()) /
                        static_cast<double>(exact_pairs.size());
  EXPECT_GE(recall, 0.9) << "banded recall below the planted-overlap floor ("
                         << banded_pairs.size() << "/" << exact_pairs.size()
                         << ")";
}

/// Same contract through the planner at S = 4: the banded cross-shard
/// rectangles merge-join two shards' tables, and the union over all
/// passes must still be a subset-with-identical-estimates of the exact
/// planner result, above the same recall floor.
TEST(PairScanTest, PlannerBandingSubsetExactEstimatesAndRecallFloor) {
  const UserId users = 96;
  const std::vector<Element> elements = CommunityStream(users, 60, 9);
  ShardedVosSketch sketch(PlannerConfig(4), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryPlanner exact(sketch);
  exact.Rebuild(candidates);
  const auto exact_pairs = exact.AllPairsAbove(0.4);
  ASSERT_GE(exact_pairs.size(), users / 6);
  const bool has_cross = std::any_of(
      exact_pairs.begin(), exact_pairs.end(), [&](const QueryPlanner::Pair& p) {
        return sketch.ShardOf(p.u) != sketch.ShardOf(p.v);
      });
  ASSERT_TRUE(has_cross) << "floor must cover cross-shard rectangles too";

  QueryOptions banded_options;
  banded_options.banding_bands = 32;
  banded_options.banding_rows_per_band = 4;
  banded_options.num_threads = 4;
  QueryPlanner banded(sketch, {}, banded_options);
  banded.Rebuild(candidates);
  const auto banded_pairs = banded.AllPairsAbove(0.4);

  std::map<std::pair<UserId, UserId>, std::pair<double, double>> exact_by_pair;
  for (const auto& pair : exact_pairs) {
    exact_by_pair[{pair.u, pair.v}] = {pair.common, pair.jaccard};
  }
  size_t banded_cross = 0;
  for (const auto& pair : banded_pairs) {
    const auto it = exact_by_pair.find({pair.u, pair.v});
    ASSERT_NE(it, exact_by_pair.end())
        << "banded planner pair (" << pair.u << "," << pair.v
        << ") not in the exact result";
    EXPECT_EQ(pair.common, it->second.first);
    EXPECT_EQ(pair.jaccard, it->second.second);
    if (sketch.ShardOf(pair.u) != sketch.ShardOf(pair.v)) ++banded_cross;
  }
  EXPECT_GT(banded_cross, 0u) << "banded rectangles must surface pairs";
  const double recall = static_cast<double>(banded_pairs.size()) /
                        static_cast<double>(exact_pairs.size());
  EXPECT_GE(recall, 0.9) << banded_pairs.size() << "/" << exact_pairs.size();
}

/// Banding only changes enumeration; RefreshDirty must rebuild the table
/// so post-churn banded scans keep the subset/identical-estimate
/// contract against a post-churn exact scan.
TEST(PairScanTest, BandingTableSurvivesIncrementalRefresh) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 21);
  VosConfig config = IndexConfig();
  config.track_dirty = true;
  VosSketch sketch(config, users);
  for (const Element& e : elements) sketch.Update(e);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryOptions options;
  options.banding_bands = 32;
  options.banding_rows_per_band = 4;
  options.incremental = true;
  SimilarityIndex banded(sketch, {}, options);
  banded.Rebuild(candidates);

  ItemId next_item = 1 << 29;
  for (const UserId touched : {UserId{0}, UserId{17}}) {
    sketch.Update({touched, next_item++, Action::kInsert});
    sketch.Update({touched, next_item++, Action::kInsert});
  }
  banded.RefreshDirty();
  ASSERT_NE(banded.banding_table(), nullptr);

  SimilarityIndex exact(sketch);
  exact.Rebuild(candidates);
  const auto exact_pairs = exact.AllPairsAbove(0.4);
  std::map<std::pair<UserId, UserId>, std::pair<double, double>> exact_by_pair;
  for (const auto& pair : exact_pairs) {
    exact_by_pair[{pair.u, pair.v}] = {pair.common, pair.jaccard};
  }
  const auto banded_pairs = banded.AllPairsAbove(0.4);
  ASSERT_FALSE(banded_pairs.empty());
  for (const auto& pair : banded_pairs) {
    const auto it = exact_by_pair.find({pair.u, pair.v});
    ASSERT_NE(it, exact_by_pair.end())
        << "stale banding table after refresh: pair (" << pair.u << ","
        << pair.v << ")";
    EXPECT_EQ(pair.common, it->second.first);
    EXPECT_EQ(pair.jaccard, it->second.second);
  }
}

/// The factory-knob path into the tier: VosMethod::MakeIndex must build
/// its snapshot with the method's QueryOptions, so tile_rows and
/// banding_* configured at construction govern the scans (tiled exact
/// path bit-identical; banded path a subset with identical estimates).
TEST(PairScanTest, VosMethodMakeIndexHonorsTileAndBandingKnobs) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 27);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryOptions tiled_options;
  tiled_options.tile_rows = 7;  // deliberately odd: many partial tiles
  VosMethod tiled_method(IndexConfig(), users, {}, tiled_options);
  QueryOptions banded_options;
  banded_options.banding_bands = 32;
  banded_options.banding_rows_per_band = 4;
  VosMethod banded_method(IndexConfig(), users, {}, banded_options);
  VosMethod plain_method(IndexConfig(), users);
  for (const Element& e : elements) {
    tiled_method.Update(e);
    banded_method.Update(e);
    plain_method.Update(e);
  }

  const auto plain = plain_method.MakeIndex(candidates);
  EXPECT_EQ(plain->banding_table(), nullptr);
  const auto exact_pairs = plain->AllPairsAbove(0.4);
  ASSERT_FALSE(exact_pairs.empty());

  const auto tiled = tiled_method.MakeIndex(candidates);
  EXPECT_EQ(tiled->query_options().tile_rows, 7u);
  ExpectPairsIdentical(tiled->AllPairsAbove(0.4), exact_pairs,
                       "MakeIndex tile_rows=7");

  const auto banded = banded_method.MakeIndex(candidates);
  ASSERT_NE(banded->banding_table(), nullptr);
  std::map<std::pair<UserId, UserId>, std::pair<double, double>> exact_by_pair;
  for (const auto& pair : exact_pairs) {
    exact_by_pair[{pair.u, pair.v}] = {pair.common, pair.jaccard};
  }
  const auto banded_pairs = banded->AllPairsAbove(0.4);
  ASSERT_FALSE(banded_pairs.empty());
  for (const auto& pair : banded_pairs) {
    const auto it = exact_by_pair.find({pair.u, pair.v});
    ASSERT_NE(it, exact_by_pair.end());
    EXPECT_EQ(pair.common, it->second.first);
    EXPECT_EQ(pair.jaccard, it->second.second);
  }
}

// ------------------------------------------------- TopK warm start

/// Explicit warm seeds — loose, exact (the true k-th best), and
/// over-tight (forces the verified cold rerun) — must all return results
/// bit-identical to a cold start.
TEST(PairScanTest, TopKWarmThresholdIdenticalToColdStart) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 50, 23);
  ShardedVosSketch sketch(PlannerConfig(4), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryPlanner cold(sketch);
  cold.Rebuild(candidates);
  const size_t k = 8;
  const UserId query = 0;
  const auto cold_result = cold.TopK(query, k);
  ASSERT_EQ(cold_result.size(), k);
  const double kth_best = cold_result.back().jaccard;

  for (const double seed : {0.01, kth_best, 0.99}) {
    for (const unsigned threads : {1u, 8u}) {
      QueryOptions options;
      options.topk_warm_threshold = seed;
      options.num_threads = threads;
      QueryPlanner warm(sketch, {}, options);
      warm.Rebuild(candidates);
      ExpectEntriesIdentical(warm.TopK(query, k), cold_result,
                             "seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

/// Planner-held warm start (QueryOptions::topk_warm_start): the second
/// call seeds from the first's k-th best and must stay bit-identical —
/// including after churn drives the data below the remembered bound
/// (the verification catches the over-prune and reruns cold).
TEST(PairScanTest, TopKPlannerWarmStartIdenticalAcrossCheckpoints) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 50, 25);
  ShardedVosConfig config = PlannerConfig(4);
  config.base.track_dirty = true;
  ShardedVosSketch sketch(config, users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryOptions warm_options;
  warm_options.topk_warm_start = true;
  warm_options.incremental = true;
  QueryPlanner warm(sketch, {}, warm_options);
  warm.Rebuild(candidates);

  QueryOptions cold_options;
  cold_options.incremental = true;
  QueryPlanner cold(sketch, {}, cold_options);
  cold.Rebuild(candidates);

  const size_t k = 6;
  const UserId query = 1;  // clustered: has strong planted neighbours
  // First call is cold inside the warm planner; second is warm-seeded.
  ExpectEntriesIdentical(warm.TopK(query, k), cold.TopK(query, k),
                         "checkpoint 0");
  ExpectEntriesIdentical(warm.TopK(query, k), cold.TopK(query, k),
                         "checkpoint 0 warm rerun");
  // Mixed query set: a disjoint (low-similarity) user and a different k
  // interleaved with the strong query — bounds are keyed per (query, k),
  // so neither may inherit the other's remembered k-th best.
  const UserId weak_query = 2;  // not clustered: every neighbour is noise
  ExpectEntriesIdentical(warm.TopK(weak_query, k), cold.TopK(weak_query, k),
                         "checkpoint 0 weak query");
  ExpectEntriesIdentical(warm.TopK(query, 2 * k), cold.TopK(query, 2 * k),
                         "checkpoint 0 larger k");
  ExpectEntriesIdentical(warm.TopK(query, k), cold.TopK(query, k),
                         "checkpoint 0 strong query after weak");

  // Drift the data DOWN: the query's best neighbour loses its shared
  // items, so the remembered k-th best over-prunes and the warm call
  // must detect it and rerun cold.
  ItemId next_item = 1 << 29;
  for (uint32_t c = 0; c < 40; ++c) {
    sketch.Update({query, (query / 4) * 100000u + c, Action::kDelete});
    sketch.Update({query, next_item++, Action::kInsert});
  }
  warm.Refresh();
  cold.Refresh();
  ExpectEntriesIdentical(warm.TopK(query, k), cold.TopK(query, k),
                         "checkpoint 1 (drift below the warm bound)");
}

}  // namespace
}  // namespace vos::core
