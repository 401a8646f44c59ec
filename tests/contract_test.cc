// Contract tests: API misuse must fail loudly (VOS_CHECK aborts), and the
// baseline estimator conversion helpers must be numerically exact. Death
// tests pin the crash-on-misuse behaviour so a refactor cannot silently
// turn a programming error into a wrong answer.

#include <gtest/gtest.h>

#include "baselines/estimate_util.h"
#include "common/flags.h"
#include "core/vos_sketch.h"
#include "harness/memory_budget.h"
#include "stream/dataset.h"

namespace vos {
namespace {

using baseline::BaselineOptions;
using baseline::FromCommon;
using baseline::FromJaccard;

// ------------------------------------------------------------ estimate_util

TEST(EstimateUtilTest, FromJaccardInvertsTheIdentity) {
  // s = J(n_u+n_v)/(J+1) — §II's identity. J = 1/3, n = 200+200 → s = 100.
  BaselineOptions options;
  const auto est = FromJaccard(1.0 / 3.0, 200, 200, options);
  EXPECT_NEAR(est.common, 100.0, 1e-9);
  EXPECT_NEAR(est.jaccard, 1.0 / 3.0, 1e-12);
}

TEST(EstimateUtilTest, FromCommonInvertsTheIdentity) {
  BaselineOptions options;
  const auto est = FromCommon(100, 200, 200, options);
  EXPECT_NEAR(est.jaccard, 100.0 / 300.0, 1e-12);
}

TEST(EstimateUtilTest, RoundTripIsConsistent) {
  BaselineOptions options;
  // With n_u = 150, n_v = 250, feasible J is at most min/max = 0.6 (J = 1
  // needs equal sets); beyond that the clamp correctly interferes.
  for (double j : {0.0, 0.1, 0.3, 0.6}) {
    const auto a = FromJaccard(j, 150, 250, options);
    const auto b = FromCommon(a.common, 150, 250, options);
    EXPECT_NEAR(b.jaccard, j, 1e-9) << "J=" << j;
  }
  // Equal cardinalities make the whole [0, 1] range feasible.
  for (double j : {0.9, 1.0}) {
    const auto a = FromJaccard(j, 200, 200, options);
    const auto b = FromCommon(a.common, 200, 200, options);
    EXPECT_NEAR(b.jaccard, j, 1e-9) << "J=" << j;
  }
}

TEST(EstimateUtilTest, ClampingBehaviour) {
  BaselineOptions clamped;
  // Overestimated s beyond min(n_u, n_v) clamps.
  EXPECT_DOUBLE_EQ(FromCommon(500, 100, 300, clamped).common, 100.0);
  EXPECT_DOUBLE_EQ(FromCommon(500, 100, 300, clamped).jaccard, 1.0);
  BaselineOptions raw;
  raw.clamp_to_feasible = false;
  EXPECT_DOUBLE_EQ(FromCommon(500, 100, 300, raw).common, 500.0);
  // Degenerate denominators.
  EXPECT_DOUBLE_EQ(FromCommon(0, 0, 0, clamped).jaccard, 0.0);
  EXPECT_DOUBLE_EQ(FromCommon(10, 5, 5, clamped).jaccard, 1.0);
}

// ------------------------------------------------------------- death tests

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, ZeroSizedSketchAborts) {
  core::VosConfig config;
  config.k = 0;
  EXPECT_DEATH(core::VosSketch(config, 1), "at least one bit");
}

TEST(ContractDeathTest, MalformedFlagValueAborts) {
  const char* argv[] = {"prog", "--k=twelve", "--empty=",
                        "--big=99999999999999999999", "--huge=1e999"};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_DEATH(flags->GetInt("k", 0), "not an integer");
  // An empty value is not 0, and an out-of-range one does not saturate.
  EXPECT_DEATH(flags->GetInt("empty", 0), "not an integer");
  EXPECT_DEATH(flags->GetInt("big", 0), "not an integer");
  EXPECT_DEATH(flags->GetDouble("empty", 0.0), "not a number");
  EXPECT_DEATH(flags->GetDouble("huge", 0.0), "not a number");
}

TEST(ContractDeathTest, BadBudgetParametersAbort) {
  EXPECT_DEATH(harness::MemoryBudget(0, 100), "");
  harness::MemoryBudget budget(10, 100);
  EXPECT_DEATH(budget.VosVirtualK(0.0), "");
}

TEST(ContractDeathTest, NegativeScaleAborts) {
  auto spec = stream::GetDatasetSpec("unit");
  ASSERT_TRUE(spec.ok());
  EXPECT_DEATH(stream::ScaleSpec(*spec, -1.0), "positive");
}

}  // namespace
}  // namespace vos
