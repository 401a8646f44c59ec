// Tests for the cost-based query optimizer (core/query_optimizer.h).
//
// Covered contracts:
//
//   * Cost model units: ChoosePassPlan prices both plans with exactly the
//     documented formulas on synthetic statistics, the force modes pin
//     the verdict, and a forced banded plan degrades to exact when no
//     banding table exists.
//   * Plan-choice determinism: PlanAllPairs is pure per process —
//     concurrent callers on many threads see one identical verdict.
//   * Forced-plan (VOS_PLAN) bit-identity: the exact leg reproduces the
//     optimizer-free result bit for bit; the banded leg is a subset of it
//     with bit-identical per-pair estimates; auto lands on one of the
//     two, matching its own report.
//   * Banded TopK ⊆ exact TopK (full ranking) with identical estimates.
//   * Degenerate-bucket guard: an adversarial all-zero snapshot (every
//     row in one bucket) keeps the banded candidate bound subquadratic,
//     and the capped candidates are a subset of the uncapped ones.
//   * Incremental BandingTable::Patch after RefreshDirty is bit-identical
//     to a from-scratch build over the refreshed snapshot.
//   * Measured-recall feedback: an undershoot re-plans the next snapshot
//     exact (forced), and one clean snapshot clears the latch.
//   * Adaptive SPSC spin budgets stay within their clamp under sustained
//     back-pressure while the flush contracts keep holding.
//
// The CI plan matrix exports VOS_PLAN globally, so every test whose
// outcome depends on the mode pins the env var itself (ScopedPlanEnv).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/digest_matrix.h"
#include "core/pair_scan.h"
#include "core/query_optimizer.h"
#include "core/query_planner.h"
#include "core/scan_common.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
#include "core/vos_sketch.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Pins VOS_PLAN for one test scope and restores the previous value on
/// exit (nullptr = unset), so tests hold under the CI forced-plan matrix.
class ScopedPlanEnv {
 public:
  explicit ScopedPlanEnv(const char* value) {
    const char* old = std::getenv("VOS_PLAN");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv("VOS_PLAN");
    } else {
      ::setenv("VOS_PLAN", value, 1);
    }
  }
  ~ScopedPlanEnv() {
    if (had_old_) {
      ::setenv("VOS_PLAN", old_.c_str(), 1);
    } else {
      ::unsetenv("VOS_PLAN");
    }
  }
  ScopedPlanEnv(const ScopedPlanEnv&) = delete;
  ScopedPlanEnv& operator=(const ScopedPlanEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

/// Overrides the calibrated constants for one test scope so cost
/// arithmetic is checked against known numbers, not probe timings.
class ScopedCosts {
 public:
  explicit ScopedCosts(const optimizer::KernelCostModel& costs) {
    optimizer::SetCalibratedCostsForTest(&costs);
  }
  ~ScopedCosts() { optimizer::SetCalibratedCostsForTest(nullptr); }
  ScopedCosts(const ScopedCosts&) = delete;
  ScopedCosts& operator=(const ScopedCosts&) = delete;
};

/// Community stream with planted pairs (same shape as pair_scan_test.cc:
/// every 4-user group's first two members share 75% of their items).
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

std::vector<UserId> AllUsers(UserId users) {
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  return candidates;
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

/// Asserts `got` ⊆ `want` by (u, v) with bit-identical estimates — the
/// precision-1 contract every banded plan must keep.
template <typename PairT>
void ExpectSubsetIdenticalEstimates(const std::vector<PairT>& got,
                                    const std::vector<PairT>& want,
                                    const std::string& context) {
  std::map<std::pair<UserId, UserId>, std::pair<double, double>> by_pair;
  for (const auto& pair : want) {
    by_pair[{pair.u, pair.v}] = {pair.common, pair.jaccard};
  }
  for (const auto& pair : got) {
    const auto it = by_pair.find({pair.u, pair.v});
    ASSERT_NE(it, by_pair.end())
        << context << ": pair (" << pair.u << "," << pair.v
        << ") not in the exact result — precision must be 1";
    EXPECT_EQ(pair.common, it->second.first) << context;
    EXPECT_EQ(pair.jaccard, it->second.second) << context;
  }
}

// ------------------------------------------------------- pure functions

TEST(QueryOptimizerTest, ParsePlanModeAndNames) {
  optimizer::PlanMode mode;
  ASSERT_TRUE(optimizer::ParsePlanMode("auto", &mode));
  EXPECT_EQ(mode, optimizer::PlanMode::kAuto);
  ASSERT_TRUE(optimizer::ParsePlanMode("exact", &mode));
  EXPECT_EQ(mode, optimizer::PlanMode::kForceExact);
  ASSERT_TRUE(optimizer::ParsePlanMode("banded", &mode));
  EXPECT_EQ(mode, optimizer::PlanMode::kForceBanded);
  EXPECT_FALSE(optimizer::ParsePlanMode("tiled", &mode));
  EXPECT_FALSE(optimizer::ParsePlanMode("", &mode));
  EXPECT_FALSE(optimizer::ParsePlanMode(nullptr, &mode));

  EXPECT_STREQ(optimizer::PlanModeName(optimizer::PlanMode::kAuto), "auto");
  EXPECT_STREQ(optimizer::PlanModeName(optimizer::PlanMode::kForceExact),
               "exact");
  EXPECT_STREQ(optimizer::PlanModeName(optimizer::PlanMode::kForceBanded),
               "banded");
  EXPECT_STREQ(optimizer::PlanKindName(optimizer::PlanKind::kExact), "exact");
  EXPECT_STREQ(optimizer::PlanKindName(optimizer::PlanKind::kBanded),
               "banded");
}

TEST(QueryOptimizerTest, EffectivePlanModeHonorsEnvOverride) {
  {
    ScopedPlanEnv unset(nullptr);
    EXPECT_EQ(optimizer::EffectivePlanMode(optimizer::PlanMode::kForceBanded),
              optimizer::PlanMode::kForceBanded);
  }
  {
    ScopedPlanEnv exact("exact");
    EXPECT_EQ(optimizer::EffectivePlanMode(optimizer::PlanMode::kAuto),
              optimizer::PlanMode::kForceExact);
    EXPECT_EQ(optimizer::EffectivePlanMode(optimizer::PlanMode::kForceBanded),
              optimizer::PlanMode::kForceExact);
  }
  {
    // Unknown values warn (once) and fall back to the configured mode.
    ScopedPlanEnv junk("fastest");
    EXPECT_EQ(optimizer::EffectivePlanMode(optimizer::PlanMode::kForceExact),
              optimizer::PlanMode::kForceExact);
  }
}

TEST(QueryOptimizerTest, ChoosePassPlanPricesDocumentedFormulas) {
  optimizer::KernelCostModel costs;
  costs.seconds_per_pair_word = 2.0;
  costs.seconds_per_pair = 3.0;
  costs.seconds_per_candidate = 5.0;
  costs.seconds_per_entry = 7.0;

  optimizer::PassStats stats;
  stats.words_per_row = 4;
  stats.exact_pairs = 100;
  stats.banded_entries = 10;
  stats.banded_candidates = 6;
  stats.banded_available = true;
  stats.dirty_fraction = 0.5;

  const double per_pair = 4 * 2.0 + 3.0;  // 11
  const double want_exact = 100 * per_pair;
  const double want_banded = 10 * 7.0 + 6 * (per_pair + 5.0) + 0.5 * 10 * 7.0;
  const auto plan =
      optimizer::ChoosePassPlan(stats, costs, optimizer::PlanMode::kAuto);
  EXPECT_DOUBLE_EQ(plan.exact_cost, want_exact);
  EXPECT_DOUBLE_EQ(plan.banded_cost, want_banded);
  EXPECT_EQ(plan.kind, optimizer::PlanKind::kBanded)
      << "few candidates must beat the full window scan";
  EXPECT_FALSE(plan.forced);

  // Narrow windows flip the verdict: exact work below the bucket walk.
  optimizer::PassStats narrow = stats;
  narrow.exact_pairs = 5;
  const auto narrow_plan =
      optimizer::ChoosePassPlan(narrow, costs, optimizer::PlanMode::kAuto);
  EXPECT_EQ(narrow_plan.kind, optimizer::PlanKind::kExact);

  // A dirtier refresh cadence taxes the banded plan's upkeep term only.
  optimizer::PassStats dirty = stats;
  dirty.dirty_fraction = 1.0;
  const auto dirty_plan =
      optimizer::ChoosePassPlan(dirty, costs, optimizer::PlanMode::kAuto);
  EXPECT_DOUBLE_EQ(dirty_plan.banded_cost, want_banded + 0.5 * 10 * 7.0);
  EXPECT_DOUBLE_EQ(dirty_plan.exact_cost, want_exact);
}

TEST(QueryOptimizerTest, ChoosePassPlanForcedModesAndDegradation) {
  optimizer::KernelCostModel costs;
  costs.seconds_per_pair_word = 1.0;
  costs.seconds_per_pair = 1.0;
  costs.seconds_per_candidate = 1.0;
  costs.seconds_per_entry = 1.0;

  optimizer::PassStats stats;
  stats.words_per_row = 8;
  stats.exact_pairs = 10;
  stats.banded_entries = 1000;
  stats.banded_candidates = 1000;
  stats.banded_available = true;

  const auto forced_banded = optimizer::ChoosePassPlan(
      stats, costs, optimizer::PlanMode::kForceBanded);
  EXPECT_EQ(forced_banded.kind, optimizer::PlanKind::kBanded);
  EXPECT_TRUE(forced_banded.forced)
      << "a pinned plan must be reported as forced even when it loses";
  const auto forced_exact = optimizer::ChoosePassPlan(
      stats, costs, optimizer::PlanMode::kForceExact);
  EXPECT_EQ(forced_exact.kind, optimizer::PlanKind::kExact);
  EXPECT_TRUE(forced_exact.forced);

  // No banding table: every mode lands on exact; banded prices infinite.
  optimizer::PassStats unavailable = stats;
  unavailable.banded_available = false;
  for (const auto mode :
       {optimizer::PlanMode::kAuto, optimizer::PlanMode::kForceExact,
        optimizer::PlanMode::kForceBanded}) {
    const auto plan = optimizer::ChoosePassPlan(unavailable, costs, mode);
    EXPECT_EQ(plan.kind, optimizer::PlanKind::kExact);
    EXPECT_EQ(plan.banded_cost, std::numeric_limits<double>::infinity());
    EXPECT_EQ(plan.forced, mode != optimizer::PlanMode::kAuto);
  }
}

TEST(QueryOptimizerTest, CalibratedCostsArePositiveAndStable) {
  const optimizer::KernelCostModel first = optimizer::CalibratedCosts();
  EXPECT_GT(first.seconds_per_pair_word, 0.0);
  EXPECT_GT(first.seconds_per_pair, 0.0);
  EXPECT_GT(first.seconds_per_candidate, 0.0);
  EXPECT_GT(first.seconds_per_entry, 0.0);
  // The probe runs once per process per level; repeat calls must return
  // the cached constants bit for bit (plan determinism relies on it).
  const optimizer::KernelCostModel second = optimizer::CalibratedCosts();
  EXPECT_EQ(first.seconds_per_pair_word, second.seconds_per_pair_word);
  EXPECT_EQ(first.seconds_per_pair, second.seconds_per_pair);
  EXPECT_EQ(first.seconds_per_candidate, second.seconds_per_candidate);
  EXPECT_EQ(first.seconds_per_entry, second.seconds_per_entry);
  EXPECT_EQ(first.level, second.level);
}

size_t BruteTrianglePairs(const std::vector<uint32_t>& cards, double tau) {
  const double tau_frac = tau / (1.0 + tau);
  size_t pairs = 0;
  for (size_t p = 0; p < cards.size(); ++p) {
    for (size_t q = p + 1; q < cards.size(); ++q) {
      const double lo = std::min(cards[p], cards[q]);
      const double sum = static_cast<double>(cards[p]) + cards[q];
      if (!scan::CardinalityFail(lo, sum, tau_frac)) ++pairs;
    }
  }
  return pairs;
}

TEST(QueryOptimizerTest, WindowPairCountsMatchBruteForce) {
  Rng rng(47);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                         size_t{64}, size_t{257}}) {
    std::vector<uint32_t> cards(n);
    for (uint32_t& c : cards) c = static_cast<uint32_t>(rng.NextU64() % 500);
    std::sort(cards.begin(), cards.end());
    std::vector<uint32_t> other(n / 2 + (n > 0 ? 1 : 0));
    for (uint32_t& c : other) c = static_cast<uint32_t>(rng.NextU64() % 500);
    std::sort(other.begin(), other.end());

    for (const double tau : {0.1, 0.4, 0.9}) {
      EXPECT_EQ(optimizer::TriangleWindowPairs(cards.data(), n, tau, true),
                BruteTrianglePairs(cards, tau))
          << "n=" << n << " tau=" << tau;

      const double tau_frac = tau / (1.0 + tau);
      size_t rect = 0;
      for (const uint32_t a : cards) {
        for (const uint32_t b : other) {
          const double lo = std::min(a, b);
          if (!scan::CardinalityFail(lo, static_cast<double>(a) + b,
                                     tau_frac)) {
            ++rect;
          }
        }
      }
      EXPECT_EQ(optimizer::RectangleWindowPairs(cards.data(), n, other.data(),
                                                other.size(), tau, true),
                rect)
          << "n=" << n << " tau=" << tau;
    }
    // prefilter off = the full pair space.
    EXPECT_EQ(optimizer::TriangleWindowPairs(cards.data(), n, 0.4, false),
              n < 2 ? 0 : n * (n - 1) / 2);
    EXPECT_EQ(optimizer::RectangleWindowPairs(cards.data(), n, other.data(),
                                              other.size(), 0.4, false),
              n * other.size());
  }
}

TEST(QueryOptimizerTest, AdaptiveTileRowsBoundedAlignedMonotone) {
  size_t previous = std::numeric_limits<size_t>::max();
  for (const size_t words : {size_t{0}, size_t{1}, size_t{8}, size_t{25},
                             size_t{100}, size_t{1000}, size_t{100000}}) {
    const size_t tile = optimizer::AdaptiveTileRows(words);
    EXPECT_GE(tile, 64u) << "words=" << words;
    EXPECT_LE(tile, 2048u) << "words=" << words;
    EXPECT_EQ(tile % 8, 0u) << "words=" << words;
    EXPECT_EQ(tile, optimizer::AdaptiveTileRows(words))
        << "must be deterministic per process";
    if (words > 0) {
      EXPECT_LE(tile, previous) << "wider rows cannot grow the tile";
      previous = tile;
    }
  }
}

// ----------------------------------------------- plan-choice determinism

TEST(QueryOptimizerTest, PlanChoiceDeterministicAcrossThreads) {
  ScopedPlanEnv env("auto");
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 5);
  ShardedVosSketch sketch(PlannerConfig(4), users);
  sketch.UpdateBatch(elements.data(), elements.size());

  QueryOptions options;
  options.banding_bands = 32;
  options.banding_rows_per_band = 4;
  QueryPlanner planner(sketch, {}, options);
  planner.Rebuild(AllUsers(users));

  const std::vector<optimizer::PassReport> reference =
      planner.PlanAllPairs(0.4);
  ASSERT_FALSE(reference.empty());

  constexpr unsigned kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int repeat = 0; repeat < 8; ++repeat) {
        const auto got = planner.PlanAllPairs(0.4);
        if (got.size() != reference.size()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].plan.kind != reference[i].plan.kind ||
              got[i].plan.exact_cost != reference[i].plan.exact_cost ||
              got[i].plan.banded_cost != reference[i].plan.banded_cost ||
              got[i].stats.exact_pairs != reference[i].stats.exact_pairs) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "every thread must see the identical verdicts and costs";
}

// ------------------------------------------- forced-plan bit-identity

TEST(QueryOptimizerTest, ForcedPlanBitIdentityOnIndex) {
  const UserId users = 96;
  const std::vector<Element> elements = CommunityStream(users, 60, 9);
  VosSketch sketch(IndexConfig(), users);
  for (const Element& e : elements) sketch.Update(e);
  const std::vector<UserId> candidates = AllUsers(users);

  // The optimizer-free reference: a banding-off index (no table exists,
  // so every plan is exact by construction).
  std::vector<SimilarityIndex::Pair> reference;
  {
    ScopedPlanEnv env(nullptr);
    SimilarityIndex plain(sketch);
    plain.Rebuild(candidates);
    reference = plain.AllPairsAbove(0.4);
  }
  ASSERT_FALSE(reference.empty());

  QueryOptions banded_options;
  banded_options.banding_bands = 32;
  banded_options.banding_rows_per_band = 4;
  SimilarityIndex index(sketch, {}, banded_options);
  index.Rebuild(candidates);
  ASSERT_NE(index.banding_table(), nullptr);

  {
    ScopedPlanEnv env("exact");
    const auto report = index.PlanAllPairs(0.4);
    EXPECT_EQ(report.plan.kind, optimizer::PlanKind::kExact);
    EXPECT_TRUE(report.plan.forced);
    ExpectPairsIdentical(index.AllPairsAbove(0.4), reference,
                         "VOS_PLAN=exact over a banded index");
  }
  {
    ScopedPlanEnv env("banded");
    const auto report = index.PlanAllPairs(0.4);
    EXPECT_EQ(report.plan.kind, optimizer::PlanKind::kBanded);
    EXPECT_TRUE(report.plan.forced);
    const auto banded_pairs = index.AllPairsAbove(0.4);
    ASSERT_FALSE(banded_pairs.empty());
    ExpectSubsetIdenticalEstimates(banded_pairs, reference,
                                   "VOS_PLAN=banded over a banded index");
  }
  {
    // Auto must land on whichever plan it reported: exact reproduces the
    // reference bit for bit, banded is a subset with identical estimates.
    ScopedPlanEnv env("auto");
    const auto report = index.PlanAllPairs(0.4);
    EXPECT_FALSE(report.plan.forced);
    const auto auto_pairs = index.AllPairsAbove(0.4);
    if (report.plan.kind == optimizer::PlanKind::kExact) {
      ExpectPairsIdentical(auto_pairs, reference, "auto chose exact");
    } else {
      ExpectSubsetIdenticalEstimates(auto_pairs, reference,
                                     "auto chose banded");
    }
  }
}

TEST(QueryOptimizerTest, ForcedPlanBitIdentityOnPlanner) {
  const UserId users = 96;
  const std::vector<Element> elements = CommunityStream(users, 60, 9);
  ShardedVosSketch sketch(PlannerConfig(4), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  const std::vector<UserId> candidates = AllUsers(users);

  std::vector<QueryPlanner::Pair> reference;
  {
    ScopedPlanEnv env(nullptr);
    QueryPlanner plain(sketch);
    plain.Rebuild(candidates);
    reference = plain.AllPairsAbove(0.4);
  }
  ASSERT_FALSE(reference.empty());

  QueryOptions banded_options;
  banded_options.banding_bands = 32;
  banded_options.banding_rows_per_band = 4;
  QueryPlanner planner(sketch, {}, banded_options);
  planner.Rebuild(candidates);

  {
    ScopedPlanEnv env("exact");
    for (const auto& report : planner.PlanAllPairs(0.4)) {
      EXPECT_EQ(report.plan.kind, optimizer::PlanKind::kExact);
      EXPECT_TRUE(report.plan.forced);
    }
    ExpectPairsIdentical(planner.AllPairsAbove(0.4), reference,
                         "VOS_PLAN=exact over a banded planner");
  }
  {
    ScopedPlanEnv env("banded");
    const auto reports = planner.PlanAllPairs(0.4);
    ASSERT_FALSE(reports.empty());
    for (const auto& report : reports) {
      EXPECT_EQ(report.plan.kind, optimizer::PlanKind::kBanded);
    }
    const auto banded_pairs = planner.AllPairsAbove(0.4);
    ASSERT_FALSE(banded_pairs.empty());
    ExpectSubsetIdenticalEstimates(banded_pairs, reference,
                                   "VOS_PLAN=banded over a banded planner");
    size_t banded_cross = 0;
    for (const auto& pair : banded_pairs) {
      if (sketch.ShardOf(pair.u) != sketch.ShardOf(pair.v)) ++banded_cross;
    }
    EXPECT_GT(banded_cross, 0u)
        << "banded rectangles must surface cross-shard pairs";
  }
}

// ------------------------------------------------------- banded TopK

TEST(QueryOptimizerTest, BandedTopKSubsetOfExactWithIdenticalEstimates) {
  const UserId users = 96;
  const std::vector<Element> elements = CommunityStream(users, 60, 9);
  VosSketch sketch(IndexConfig(), users);
  for (const Element& e : elements) sketch.Update(e);

  QueryOptions options;
  options.banding_bands = 32;
  options.banding_rows_per_band = 4;
  SimilarityIndex index(sketch, {}, options);
  index.Rebuild(AllUsers(users));
  ASSERT_NE(index.banding_table(), nullptr);

  for (const UserId query : {UserId{0}, UserId{2}, UserId{33}}) {
    // k = n: the full ranking, where subset-with-identical-estimates is
    // exactly the banding contract (a truncated k could admit a lower
    // scorer in place of a missed higher one).
    std::vector<SimilarityIndex::Entry> exact_entries;
    {
      ScopedPlanEnv env("exact");
      exact_entries = index.TopK(query, users);
      EXPECT_EQ(index.last_topk_plan(), optimizer::PlanKind::kExact);
    }
    ASSERT_EQ(exact_entries.size(), static_cast<size_t>(users) - 1);
    std::map<UserId, std::pair<double, double>> exact_by_user;
    for (const auto& entry : exact_entries) {
      exact_by_user[entry.user] = {entry.common, entry.jaccard};
    }

    ScopedPlanEnv env("banded");
    const auto banded_entries = index.TopK(query, users);
    EXPECT_EQ(index.last_topk_plan(), optimizer::PlanKind::kBanded);
    EXPECT_LE(banded_entries.size(), exact_entries.size());
    for (const auto& entry : banded_entries) {
      const auto it = exact_by_user.find(entry.user);
      ASSERT_NE(it, exact_by_user.end())
          << "banded TopK surfaced user " << entry.user
          << " missing from the exact ranking (query " << query << ")";
      EXPECT_EQ(entry.common, it->second.first);
      EXPECT_EQ(entry.jaccard, it->second.second);
    }
    if (query % 4 <= 1) {
      // Clustered queries collide with their planted partner in some
      // band with overwhelming probability — banded must surface them.
      EXPECT_FALSE(banded_entries.empty()) << "query " << query;
    }
  }
}

TEST(QueryOptimizerTest, BandedPlannerTopKSubsetOfExact) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 5);
  ShardedVosSketch sketch(PlannerConfig(4), users);
  sketch.UpdateBatch(elements.data(), elements.size());

  QueryOptions options;
  options.banding_bands = 32;
  options.banding_rows_per_band = 4;
  QueryPlanner planner(sketch, {}, options);
  planner.Rebuild(AllUsers(users));

  for (const UserId query : {UserId{1}, UserId{5}}) {
    std::vector<QueryPlanner::Entry> exact_entries;
    {
      ScopedPlanEnv env("exact");
      exact_entries = planner.TopK(query, users);
    }
    ASSERT_EQ(exact_entries.size(), static_cast<size_t>(users) - 1);
    std::map<UserId, std::pair<double, double>> exact_by_user;
    for (const auto& entry : exact_entries) {
      exact_by_user[entry.user] = {entry.common, entry.jaccard};
    }

    ScopedPlanEnv env("banded");
    const auto banded_entries = planner.TopK(query, users);
    ASSERT_FALSE(banded_entries.empty()) << "query " << query;
    for (const auto& entry : banded_entries) {
      const auto it = exact_by_user.find(entry.user);
      ASSERT_NE(it, exact_by_user.end()) << "query " << query;
      EXPECT_EQ(entry.common, it->second.first);
      EXPECT_EQ(entry.jaccard, it->second.second);
    }
  }
}

// ------------------------------------------- degenerate-bucket guard

TEST(QueryOptimizerTest, DegenerateBucketGuardKeepsCandidatesSubquadratic) {
  // The adversarial snapshot banding degenerates on: every digest
  // all-zero, so each band has ONE bucket holding every row.
  const uint32_t k = 192;
  const uint32_t bands = 6;
  const uint32_t rows_per_band = 7;
  const size_t rows = 256;
  const DigestMatrix zeros(k, rows);  // zero-initialized

  const pair_scan::BandingTable uncapped(zeros, bands, rows_per_band);
  EXPECT_EQ(uncapped.MaxBucketRun(), rows);
  EXPECT_EQ(uncapped.TriangleCandidateBound(),
            static_cast<size_t>(bands) * (rows * (rows - 1) / 2))
      << "uncapped: every band contributes the full quadratic bucket";

  const uint32_t cap = 8;
  const pair_scan::BandingTable capped(zeros, bands, rows_per_band, nullptr,
                                       cap);
  // Cohorts bound the per-run work by run · cap pairs: subquadratic in
  // rows for fixed cap.
  EXPECT_LE(capped.TriangleCandidateBound(),
            static_cast<size_t>(bands) * rows * cap);
  EXPECT_LT(capped.TriangleCandidateBound(), uncapped.TriangleCandidateBound())
      << "the guard must shrink the degenerate bucket's work";

  const auto capped_pairs = capped.TriangleCandidates();
  EXPECT_LE(capped_pairs.size(), capped.TriangleCandidateBound());
  const auto uncapped_pairs = uncapped.TriangleCandidates();
  ASSERT_TRUE(std::is_sorted(capped_pairs.begin(), capped_pairs.end()));
  EXPECT_TRUE(std::includes(uncapped_pairs.begin(), uncapped_pairs.end(),
                            capped_pairs.begin(), capped_pairs.end()))
      << "capped candidates must be a subset of the uncapped ones";

  // The rectangle twin over two degenerate sides.
  const pair_scan::BandingTable capped_b(zeros, bands, rows_per_band, nullptr,
                                         cap);
  EXPECT_LE(pair_scan::BandingTable::RectangleCandidateBound(capped, capped_b),
            static_cast<size_t>(bands) * rows * cap * cap)
      << "aligned cohorts bound the cross product per run";
  EXPECT_LT(pair_scan::BandingTable::RectangleCandidateBound(capped, capped_b),
            static_cast<size_t>(bands) * rows * rows);
}

// --------------------------------------------------- Patch ≡ rebuild

TEST(QueryOptimizerTest, BandingPatchBitIdenticalToRebuildAfterRefresh) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 21);
  VosConfig config = IndexConfig();
  config.track_dirty = true;
  VosSketch sketch(config, users);
  for (const Element& e : elements) sketch.Update(e);

  QueryOptions options;
  options.banding_bands = 32;
  options.banding_rows_per_band = 4;
  options.incremental = true;
  SimilarityIndex index(sketch, {}, options);
  index.Rebuild(AllUsers(users));
  ASSERT_NE(index.banding_table(), nullptr);

  ItemId next_item = 1 << 29;
  for (const UserId touched : {UserId{0}, UserId{17}, UserId{40}}) {
    sketch.Update({touched, next_item++, Action::kInsert});
    sketch.Update({touched, next_item++, Action::kInsert});
  }
  index.RefreshDirty();
  const pair_scan::BandingTable* patched = index.banding_table();
  ASSERT_NE(patched, nullptr);
  EXPECT_LT(index.last_refresh_dirty_fraction(), 1.0);
  EXPECT_GT(index.last_refresh_dirty_fraction(), 0.0);

  // A from-scratch build over the refreshed snapshot, with the identical
  // stable-id permutation (stable id = candidate index).
  std::vector<uint32_t> stable_of_row(index.matrix().rows());
  for (size_t p = 0; p < stable_of_row.size(); ++p) {
    stable_of_row[p] = static_cast<uint32_t>(index.sorted_to_candidate(p));
  }
  const pair_scan::BandingTable rebuilt(
      index.matrix(), patched->bands(), patched->rows_per_band(),
      stable_of_row.data(), patched->max_bucket());

  ASSERT_EQ(patched->entries().size(), rebuilt.entries().size());
  EXPECT_EQ(patched->entries(), rebuilt.entries())
      << "Patch must restore the exact (key, stable) order a full sort "
         "would produce";
  EXPECT_EQ(patched->TriangleCandidates(), rebuilt.TriangleCandidates());
}

// ------------------------------------------------- recall feedback

TEST(QueryOptimizerTest, RecallFeedbackForcesExactUntilCleanSnapshot) {
  ScopedPlanEnv env("auto");
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 27);
  VosSketch sketch(IndexConfig(), users);
  for (const Element& e : elements) sketch.Update(e);
  const std::vector<UserId> candidates = AllUsers(users);

  QueryOptions options;
  options.banding_bands = 32;
  options.banding_rows_per_band = 4;
  options.banding_recall_floor = 0.95;
  SimilarityIndex index(sketch, {}, options);
  index.Rebuild(candidates);
  EXPECT_FALSE(index.banding_feedback_force_exact());

  // A compliant recall never trips the latch.
  index.ReportMeasuredRecall(0.99);
  index.Rebuild(candidates);
  EXPECT_FALSE(index.banding_feedback_force_exact());

  // An undershoot re-plans the NEXT snapshot exact, reported as forced.
  index.ReportMeasuredRecall(0.5);
  EXPECT_FALSE(index.banding_feedback_force_exact())
      << "feedback latches at the snapshot boundary, not mid-query";
  index.Rebuild(candidates);
  EXPECT_TRUE(index.banding_feedback_force_exact());
  const auto report = index.PlanAllPairs(0.4);
  EXPECT_EQ(report.plan.kind, optimizer::PlanKind::kExact);
  EXPECT_TRUE(report.plan.forced);

  // One snapshot without an undershoot clears it.
  index.Rebuild(candidates);
  EXPECT_FALSE(index.banding_feedback_force_exact());

  // Floor 0 (the default) disables the feedback entirely.
  QueryOptions no_floor = options;
  no_floor.banding_recall_floor = 0.0;
  SimilarityIndex off(sketch, {}, no_floor);
  off.Rebuild(candidates);
  off.ReportMeasuredRecall(0.0);
  off.Rebuild(candidates);
  EXPECT_FALSE(off.banding_feedback_force_exact());
}

// --------------------------------------------- adaptive SPSC spin budgets

TEST(QueryOptimizerTest, AdaptiveSpinBudgetsBoundedUnderBackPressure) {
  const UserId users = 48;
  const unsigned producers = 2;
  const uint32_t shards = 4;
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    for (uint32_t i = 0; i < 120; ++i) {
      elements.push_back(
          {u, static_cast<ItemId>(u * 1000 + i), Action::kInsert});
    }
  }
  std::vector<std::vector<Element>> lanes(producers);
  for (size_t i = 0; i < elements.size(); ++i) {
    lanes[i % producers].push_back(elements[i]);
  }

  ShardedVosConfig config = PlannerConfig(shards);
  config.ingest_threads = 2;
  config.ingest_producers = producers;
  config.queue_capacity = 1;  // every second sub-batch stalls its lane
  config.batch_size = 8;
  ShardedVosSketch sketch(config, users);

  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (const Element& e : lanes[p]) sketch.Update(e, p);
      EXPECT_TRUE(sketch.FlushProducer(p).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(sketch.Flush().ok());
  EXPECT_FALSE(sketch.HasPendingIngest());

  const ShardedVosSketch::SpinStats spin = sketch.IngestSpinStats();
  // The budgets adapt but must never leave their clamp.
  EXPECT_GE(spin.min_push_spin_budget, 16u);
  EXPECT_LE(spin.max_push_spin_budget, 512u);
  EXPECT_LE(spin.min_push_spin_budget, spin.max_push_spin_budget);
  EXPECT_GE(spin.min_idle_spin_budget, 16u);
  EXPECT_LE(spin.max_idle_spin_budget, 512u);
  EXPECT_LE(spin.min_idle_spin_budget, spin.max_idle_spin_budget);
  // Capacity-1 rings with 8-element batches guarantee contention
  // somewhere: at least one park or in-budget save must be observed.
  EXPECT_GT(spin.push_parks + spin.push_spin_saves + spin.idle_parks +
                spin.idle_spin_saves,
            0u);

  // The adapted pipeline still lands on the synchronous state (the
  // equivalence contract the budgets must never touch).
  ShardedVosSketch reference(PlannerConfig(shards), users);
  for (const std::vector<Element>& lane : lanes) {
    reference.UpdateBatch(lane.data(), lane.size());
  }
  for (UserId u = 0; u < users; u += 7) {
    EXPECT_EQ(sketch.Cardinality(u), reference.Cardinality(u)) << u;
  }
  const PairEstimate got = sketch.EstimatePair(0, 1);
  const PairEstimate want = reference.EstimatePair(0, 1);
  EXPECT_EQ(got.jaccard, want.jaccard);

  // Synchronous mode has no lanes or workers: all-zero stats.
  const ShardedVosSketch::SpinStats sync_spin = reference.IngestSpinStats();
  EXPECT_EQ(sync_spin.push_parks + sync_spin.push_spin_saves +
                sync_spin.idle_parks + sync_spin.idle_spin_saves,
            0u);
  EXPECT_EQ(sync_spin.max_push_spin_budget, 0u);
  EXPECT_EQ(sync_spin.max_idle_spin_budget, 0u);
}

}  // namespace
}  // namespace vos::core
