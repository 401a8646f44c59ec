// Unit tests for src/baselines: dynamic MinHash, OPH (plain + densified)
// and Random Pairing — static accuracy, deletion semantics
// (including the §III bias behaviours the paper analyzes), and the RP
// uniformity invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <unordered_set>
#include <vector>

#include "baselines/minhash.h"
#include "baselines/oph.h"
#include "baselines/random_pairing.h"
#include "common/random.h"

namespace vos::baseline {
namespace {

using core::PairEstimate;
using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

constexpr uint64_t kItems = 100000;

/// Inserts `count` items starting at `first` for `user`.
template <typename Method>
void InsertRange(Method& method, UserId user, ItemId first, ItemId count) {
  for (ItemId i = 0; i < count; ++i) {
    method.Update({user, first + i, Action::kInsert});
  }
}

// ----------------------------------------------------------------- MinHash

TEST(MinHashTest, StaticJaccardEstimateIsAccurate) {
  // J = 100/300 = 1/3 with k=400 registers: sd = sqrt(J(1-J)/k) ≈ 0.024.
  MinHashConfig config;
  config.k = 400;
  config.seed = 5;
  MinHash method(config, 2, kItems);
  InsertRange(method, 0, 0, 200);    // user 0: [0, 200)
  InsertRange(method, 1, 100, 200);  // user 1: [100, 300): 100 common
  const PairEstimate est = method.EstimatePair(0, 1);
  EXPECT_NEAR(est.jaccard, 1.0 / 3.0, 0.08);
  EXPECT_NEAR(est.common, 100.0, 25.0);
}

TEST(MinHashTest, IdenticalAndDisjointSets) {
  MinHashConfig config;
  config.k = 128;
  MinHash method(config, 3, kItems);
  InsertRange(method, 0, 0, 50);
  InsertRange(method, 1, 0, 50);
  InsertRange(method, 2, 5000, 50);
  EXPECT_DOUBLE_EQ(method.EstimatePair(0, 1).jaccard, 1.0);
  EXPECT_DOUBLE_EQ(method.EstimatePair(0, 2).jaccard, 0.0);
}

TEST(MinHashTest, DeletingSampledMinEmptiesRegister) {
  MinHashConfig config;
  config.k = 16;
  MinHash method(config, 1, kItems);
  method.Update({0, 7, Action::kInsert});
  for (uint32_t j = 0; j < config.k; ++j) {
    EXPECT_TRUE(method.RegisterAt(0, j).occupied());
    EXPECT_EQ(method.RegisterAt(0, j).item, 7u);
  }
  method.Update({0, 7, Action::kDelete});
  for (uint32_t j = 0; j < config.k; ++j) {
    EXPECT_FALSE(method.RegisterAt(0, j).occupied());
  }
  EXPECT_EQ(method.Cardinality(0), 0u);
}

TEST(MinHashTest, DeletingNonMinLeavesRegisterIntact) {
  MinHashConfig config;
  config.k = 64;
  MinHash method(config, 1, kItems);
  InsertRange(method, 0, 0, 100);
  // Snapshot registers, delete an item, verify only registers sampling it
  // changed.
  std::vector<MinRegister> before;
  for (uint32_t j = 0; j < config.k; ++j) {
    before.push_back(method.RegisterAt(0, j));
  }
  method.Update({0, 42, Action::kDelete});
  for (uint32_t j = 0; j < config.k; ++j) {
    const MinRegister& after = method.RegisterAt(0, j);
    if (before[j].item == 42) {
      EXPECT_FALSE(after.occupied());
    } else {
      EXPECT_EQ(after.rank, before[j].rank);
      EXPECT_EQ(after.item, before[j].item);
    }
  }
}

TEST(MinHashTest, EmptiedRegisterRefillsOnInsert) {
  MinHashConfig config;
  config.k = 8;
  MinHash method(config, 1, kItems);
  method.Update({0, 1, Action::kInsert});
  method.Update({0, 1, Action::kDelete});
  method.Update({0, 2, Action::kInsert});
  for (uint32_t j = 0; j < config.k; ++j) {
    EXPECT_TRUE(method.RegisterAt(0, j).occupied());
    EXPECT_EQ(method.RegisterAt(0, j).item, 2u);
  }
}

TEST(MinHashTest, FeistelModeMatchesExpectedAccuracy) {
  MinHashConfig config;
  config.k = 256;
  config.hash_mode = HashMode::kFeistel;
  config.seed = 9;
  MinHash method(config, 2, 4096);
  InsertRange(method, 0, 0, 120);
  InsertRange(method, 1, 60, 120);  // 60 common of 180 union
  EXPECT_NEAR(method.EstimatePair(0, 1).jaccard, 60.0 / 180.0, 0.09);
}

TEST(MinHashTest, MemoryModelIs32BitsPerRegister) {
  MinHashConfig config;
  config.k = 100;
  MinHash method(config, 50, kItems);
  EXPECT_EQ(method.MemoryBits(), 100u * 32u * 50u);
}

// --------------------------------------------------------------------- OPH

TEST(OphTest, StaticJaccardEstimateIsAccurate) {
  OphConfig config;
  config.k = 400;
  config.seed = 3;
  Oph method(config, 2, kItems);
  InsertRange(method, 0, 0, 200);
  InsertRange(method, 1, 100, 200);
  EXPECT_NEAR(method.EstimatePair(0, 1).jaccard, 1.0 / 3.0, 0.09);
}

TEST(OphTest, EachItemTouchesExactlyItsBin) {
  OphConfig config;
  config.k = 32;
  Oph method(config, 1, kItems);
  method.Update({0, 12345, Action::kInsert});
  const uint32_t expected_bin = method.BinOf(12345);
  int occupied = 0;
  for (uint32_t j = 0; j < config.k; ++j) {
    if (method.BinAt(0, j).occupied()) {
      ++occupied;
      EXPECT_EQ(j, expected_bin);
      EXPECT_EQ(method.BinAt(0, j).item, 12345u);
    }
  }
  EXPECT_EQ(occupied, 1);
}

TEST(OphTest, DeletionOfBinMinEmptiesOnlyThatBin) {
  OphConfig config;
  config.k = 16;
  Oph method(config, 1, kItems);
  InsertRange(method, 0, 0, 200);
  int occupied_before = 0;
  for (uint32_t j = 0; j < config.k; ++j) {
    occupied_before += method.BinAt(0, j).occupied();
  }
  // Find one bin's sampled item and delete it.
  const uint32_t bin = 3;
  ASSERT_TRUE(method.BinAt(0, bin).occupied());
  const ItemId victim = method.BinAt(0, bin).item;
  method.Update({0, victim, Action::kDelete});
  EXPECT_FALSE(method.BinAt(0, bin).occupied());
  int occupied_after = 0;
  for (uint32_t j = 0; j < config.k; ++j) {
    occupied_after += method.BinAt(0, j).occupied();
  }
  EXPECT_EQ(occupied_after, occupied_before - 1);
}

TEST(OphTest, EstimatorIgnoresJointlyEmptyBins) {
  OphConfig config;
  config.k = 64;
  Oph method(config, 2, kItems);
  // Tiny sets: most bins empty on both sides; estimator must not count
  // them as matches.
  method.Update({0, 10, Action::kInsert});
  method.Update({1, 10, Action::kInsert});
  EXPECT_DOUBLE_EQ(method.EstimatePair(0, 1).jaccard, 1.0);
  method.Update({1, 999, Action::kInsert});
  const double j = method.EstimatePair(0, 1).jaccard;
  EXPECT_GT(j, 0.2);
  EXPECT_LT(j, 1.01);
}

/// Densification sweep: all variants fill every bin and give a sane static
/// estimate.
class DensificationTest : public ::testing::TestWithParam<Densification> {};

TEST_P(DensificationTest, FillsAllBinsAndEstimatesStaticJaccard) {
  OphConfig config;
  config.k = 256;
  config.densification = GetParam();
  config.seed = 7;
  Oph method(config, 2, kItems);
  InsertRange(method, 0, 0, 120);
  InsertRange(method, 1, 60, 120);
  for (UserId u : {0u, 1u}) {
    const auto row = method.DensifiedRow(u);
    for (uint32_t j = 0; j < config.k; ++j) {
      EXPECT_TRUE(row[j].occupied()) << "bin " << j << " user " << u;
    }
  }
  EXPECT_NEAR(method.EstimatePair(0, 1).jaccard, 60.0 / 180.0, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Variants, DensificationTest,
                         ::testing::Values(Densification::kRotationRight,
                                           Densification::kRandomDirection,
                                           Densification::kOptimal));

TEST(OphTest, DensificationNamesAppearInMethodName) {
  OphConfig config;
  config.densification = Densification::kRotationRight;
  Oph method(config, 1, kItems);
  EXPECT_EQ(method.Name(), "OPH+rotation-right");
  config.densification = Densification::kNone;
  Oph plain(config, 1, kItems);
  EXPECT_EQ(plain.Name(), "OPH");
}

// -------------------------------------------------------------- RandomPairing

TEST(RandomPairingTest, SlotHoldsUniformSampleUnderInsertions) {
  // After inserting n items, each slot's sample should be uniform over
  // them. Aggregate over many slots (they are independent samplers).
  RandomPairingConfig config;
  config.k = 2000;
  config.seed = 3;
  RandomPairing method(config, 1);
  constexpr int kN = 10;
  InsertRange(method, 0, 0, kN);
  std::vector<int> counts(kN, 0);
  for (uint32_t j = 0; j < config.k; ++j) {
    const auto& slot = method.SlotAt(0, j);
    ASSERT_TRUE(slot.occupied);
    ASSERT_LT(slot.item, static_cast<ItemId>(kN));
    ++counts[slot.item];
  }
  const double expected = static_cast<double>(config.k) / kN;
  double chi2 = 0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.9);  // chi2(9 dof, 99.9%)
}

TEST(RandomPairingTest, UniformityRestoredAfterDeletionCompensation) {
  // Delete some items, insert new ones; once compensation drains, samples
  // must again be uniform over the *current* set. This is the property
  // MinHash/OPH lose (§III) and RP retains.
  RandomPairingConfig config;
  config.k = 3000;
  config.seed = 11;
  RandomPairing method(config, 1);
  InsertRange(method, 0, 0, 10);  // items 0..9
  for (ItemId i = 0; i < 5; ++i) {
    method.Update({0, i, Action::kDelete});  // delete 0..4
  }
  InsertRange(method, 0, 100, 5);  // items 100..104; set = {5..9,100..104}
  std::map<ItemId, int> counts;
  int occupied = 0;
  for (uint32_t j = 0; j < config.k; ++j) {
    const auto& slot = method.SlotAt(0, j);
    if (!slot.occupied) continue;
    ++occupied;
    ++counts[slot.item];
  }
  ASSERT_GT(occupied, 2000);  // most slots drained their compensation
  for (const auto& [item, count] : counts) {
    const bool valid = (item >= 5 && item <= 9) ||
                       (item >= 100 && item <= 104);
    EXPECT_TRUE(valid) << "stale item " << item << " in sample";
    EXPECT_NEAR(static_cast<double>(count) / occupied, 0.1, 0.03)
        << "item " << item;
  }
}

TEST(RandomPairingTest, DeleteOfSampledItemVacatesSlot) {
  RandomPairingConfig config;
  config.k = 64;
  RandomPairing method(config, 1);
  method.Update({0, 5, Action::kInsert});
  method.Update({0, 5, Action::kDelete});
  for (uint32_t j = 0; j < config.k; ++j) {
    const auto& slot = method.SlotAt(0, j);
    EXPECT_FALSE(slot.occupied);
    EXPECT_EQ(slot.c1, 1u);
    EXPECT_EQ(slot.c2, 0u);
  }
  EXPECT_EQ(method.Cardinality(0), 0u);
}

TEST(RandomPairingTest, EstimateIsUnbiasedOnKnownOverlap) {
  // s = 30, n_u = n_v = 60: average ŝ over seeds ≈ 30.
  double total = 0;
  constexpr int kRuns = 40;
  for (int run = 0; run < kRuns; ++run) {
    RandomPairingConfig config;
    config.k = 200;
    config.seed = 1000 + run;
    config.options.clamp_to_feasible = false;  // unbiasedness check
    RandomPairing method(config, 2);
    InsertRange(method, 0, 0, 60);
    InsertRange(method, 1, 30, 60);
    total += method.EstimatePair(0, 1).common;
  }
  EXPECT_NEAR(total / kRuns, 30.0, 6.0);
}

TEST(RandomPairingTest, JaccardDerivedFromCommon) {
  RandomPairingConfig config;
  config.k = 500;
  RandomPairing method(config, 2);
  InsertRange(method, 0, 0, 40);
  InsertRange(method, 1, 0, 40);  // identical sets
  const PairEstimate est = method.EstimatePair(0, 1);
  EXPECT_NEAR(est.common, 40.0, 8.0);
  EXPECT_GT(est.jaccard, 0.75);
}

// ------------------------------------------------ deletion-bias comparison

TEST(DeletionBiasTest, SymmetricDeletionsBiasMinHashButNotOph) {
  // Identical sets, identical deletions: registers empty on both sides at
  // the same indices. MinHash's estimator divides matches by the fixed k,
  // so the vanished registers read as non-matches and Ĵ collapses toward
  // the surviving fraction (~0.5 here) although the true J stays 1. OPH's
  // denominator counts only bins occupied on at least one side, so it
  // remains exactly 1 — the two estimators fail differently, which is why
  // the paper analyzes them separately in §III.
  MinHashConfig mh_config;
  mh_config.k = 128;
  OphConfig oph_config;
  oph_config.k = 128;
  MinHash minhash(mh_config, 2, kItems);
  Oph oph(oph_config, 2, kItems);
  for (ItemId i = 0; i < 400; ++i) {
    for (UserId u : {0u, 1u}) {
      minhash.Update({u, i, Action::kInsert});
      oph.Update({u, i, Action::kInsert});
    }
  }
  for (ItemId i = 0; i < 200; ++i) {
    for (UserId u : {0u, 1u}) {
      minhash.Update({u, i, Action::kDelete});
      oph.Update({u, i, Action::kDelete});
    }
  }
  const double mh_j = minhash.EstimatePair(0, 1).jaccard;
  EXPECT_LT(mh_j, 0.75) << "true J is 1; MinHash reads surviving fraction";
  EXPECT_GT(mh_j, 0.25);
  EXPECT_DOUBLE_EQ(oph.EstimatePair(0, 1).jaccard, 1.0);
}

TEST(DeletionBiasTest, MinHashEstimateDependsOnDeletionHistory) {
  // The §III bias is *history dependence*: an emptied register refills with
  // whatever item arrives next, not with a uniform sample of the live set.
  // Two histories reaching the IDENTICAL final state:
  //   A (insertion-only): both users insert {200..399}; then u gets 1000,
  //     v gets 1001.
  //   B (with deletions): both insert {0..399}, both delete {0..199}, then
  //     u gets 1000, v gets 1001.
  // Final sets are equal in both histories (J = 200/202 ≈ 0.99), but in B
  // about half of each user's registers were emptied and refill with the
  // single fresh item (1000 vs 1001 — never matching), so Ĵ_B collapses
  // toward 0.5 while Ĵ_A stays near the truth.
  MinHashConfig config;
  config.k = 512;
  config.seed = 7;

  MinHash history_a(config, 2, kItems);
  for (ItemId i = 200; i < 400; ++i) {
    history_a.Update({0, i, Action::kInsert});
    history_a.Update({1, i, Action::kInsert});
  }
  history_a.Update({0, 1000, Action::kInsert});
  history_a.Update({1, 1001, Action::kInsert});

  MinHash history_b(config, 2, kItems);
  for (ItemId i = 0; i < 400; ++i) {
    history_b.Update({0, i, Action::kInsert});
    history_b.Update({1, i, Action::kInsert});
  }
  for (ItemId i = 0; i < 200; ++i) {
    history_b.Update({0, i, Action::kDelete});
    history_b.Update({1, i, Action::kDelete});
  }
  history_b.Update({0, 1000, Action::kInsert});
  history_b.Update({1, 1001, Action::kInsert});

  const double j_a = history_a.EstimatePair(0, 1).jaccard;
  const double j_b = history_b.EstimatePair(0, 1).jaccard;
  const double truth = 200.0 / 202.0;
  EXPECT_NEAR(j_a, truth, 0.05) << "insertion-only MinHash is unbiased";
  EXPECT_LT(j_b, 0.65) << "post-deletion refill collapses the estimate";
  EXPECT_GT(j_a - j_b, 0.25) << "estimate must depend on history (= bias)";
}

TEST(DeletionBiasTest, OphEstimateDependsOnDeletionHistory) {
  // OPH's bias needs bins holding several items (k ≪ |S|): deleting a
  // bin's sampled min discards the whole bin even though other live items
  // still map to it. Two histories to the same final state:
  //   final sets: S_u = {200..399} ∪ {1000..1049},
  //               S_v = {200..399} ∪ {2000..2049};
  //               s = 200, union = 300, J = 2/3.
  //   A: insert the final sets directly (unbiased estimate ≈ 2/3).
  //   B: both insert {0..399}, both delete {0..199} (half the bins empty
  //      on both sides), then each refills from its own disjoint fresh
  //      items — refilled bins can never match, dragging Ĵ down.
  OphConfig config;
  config.k = 64;
  config.seed = 9;

  Oph history_a(config, 2, kItems);
  for (ItemId i = 200; i < 400; ++i) {
    history_a.Update({0, i, Action::kInsert});
    history_a.Update({1, i, Action::kInsert});
  }
  for (ItemId i = 1000; i < 1050; ++i) {
    history_a.Update({0, i, Action::kInsert});
  }
  for (ItemId i = 2000; i < 2050; ++i) {
    history_a.Update({1, i, Action::kInsert});
  }

  Oph history_b(config, 2, kItems);
  for (ItemId i = 0; i < 400; ++i) {
    history_b.Update({0, i, Action::kInsert});
    history_b.Update({1, i, Action::kInsert});
  }
  for (ItemId i = 0; i < 200; ++i) {
    history_b.Update({0, i, Action::kDelete});
    history_b.Update({1, i, Action::kDelete});
  }
  for (ItemId i = 1000; i < 1050; ++i) {
    history_b.Update({0, i, Action::kInsert});
  }
  for (ItemId i = 2000; i < 2050; ++i) {
    history_b.Update({1, i, Action::kInsert});
  }

  const double truth = 200.0 / 300.0;
  const double j_a = history_a.EstimatePair(0, 1).jaccard;
  const double j_b = history_b.EstimatePair(0, 1).jaccard;
  EXPECT_NEAR(j_a, truth, 0.15) << "insertion-only OPH is unbiased";
  EXPECT_LT(j_b, truth - 0.15)
      << "deletion history must drag the OPH estimate down (= bias)";
}

}  // namespace
}  // namespace vos::baseline
