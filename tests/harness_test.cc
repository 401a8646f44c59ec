// Unit tests for src/harness: metrics, memory budget, method factory, and
// the experiment runner protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "harness/experiment.h"
#include "harness/memory_budget.h"
#include "harness/method_factory.h"
#include "harness/metrics.h"
#include "stream/dataset.h"

namespace vos::harness {
namespace {

// ----------------------------------------------------------------- Metrics

TEST(MetricsTest, AapeMatchesHandComputation) {
  AapeAccumulator aape;
  aape.Add(10, 12);  // |(10-12)/10| = 0.2
  aape.Add(20, 15);  // 0.25
  EXPECT_DOUBLE_EQ(aape.value(), (0.2 + 0.25) / 2);
  EXPECT_EQ(aape.count(), 2u);
  EXPECT_EQ(aape.skipped(), 0u);
}

TEST(MetricsTest, AapeSkipsZeroTruth) {
  AapeAccumulator aape;
  aape.Add(0, 5);
  EXPECT_EQ(aape.skipped(), 1u);
  EXPECT_DOUBLE_EQ(aape.value(), 0.0);
  aape.Add(10, 10);
  EXPECT_DOUBLE_EQ(aape.value(), 0.0);
  EXPECT_EQ(aape.count(), 1u);
}

TEST(MetricsTest, ArmseMatchesHandComputation) {
  ArmseAccumulator armse;
  armse.Add(0.5, 0.7);  // diff 0.2
  armse.Add(0.2, 0.1);  // diff -0.1
  EXPECT_NEAR(armse.value(), std::sqrt((0.04 + 0.01) / 2), 1e-12);
}

TEST(MetricsTest, ArmseSkipsUndefinedPairs) {
  ArmseAccumulator armse;
  armse.Add(0.0, 0.9, /*defined=*/false);
  EXPECT_EQ(armse.skipped(), 1u);
  EXPECT_DOUBLE_EQ(armse.value(), 0.0);
}

TEST(MetricsTest, EvaluatePairsReduces) {
  std::vector<exact::PairTruth> truths(2);
  truths[0].common = 10;
  truths[0].card_u = 15;
  truths[0].card_v = 15;  // J = 10/20
  truths[1].common = 0;
  truths[1].card_u = 0;
  truths[1].card_v = 0;  // AAPE- and ARMSE-skipped
  std::vector<core::PairEstimate> estimates(2);
  estimates[0].common = 12;
  estimates[0].jaccard = 0.6;
  estimates[1].common = 1;
  estimates[1].jaccard = 0.2;
  const PairMetrics metrics = EvaluatePairs(truths, estimates);
  EXPECT_DOUBLE_EQ(metrics.aape, 0.2);
  EXPECT_NEAR(metrics.armse, 0.1, 1e-12);
  EXPECT_EQ(metrics.pairs_counted_aape, 1u);
  EXPECT_EQ(metrics.pairs_skipped_aape, 1u);
  EXPECT_EQ(metrics.pairs_counted_armse, 1u);
}

// ------------------------------------------------------------ MemoryBudget

TEST(MemoryBudgetTest, PaperSizingRules) {
  // §V: k = 100 registers of 32 bits; |U| users; λ = 2.
  MemoryBudget budget(100, 30000);
  EXPECT_EQ(budget.TotalBits(), 32ull * 100 * 30000);
  EXPECT_EQ(budget.BitsPerUser(), 3200u);
  EXPECT_EQ(budget.BaselineK(), 100u);
  EXPECT_EQ(budget.VosVirtualK(2.0), 6400u);
  EXPECT_EQ(budget.VosArrayBits(), budget.TotalBits());
}

TEST(MemoryBudgetTest, LambdaScalesVirtualK) {
  MemoryBudget budget(50, 100);
  EXPECT_EQ(budget.VosVirtualK(1.0), 1600u);
  EXPECT_EQ(budget.VosVirtualK(3.0), 4800u);
}

// ----------------------------------------------------------- MethodFactory

MethodFactoryConfig UnitFactory() {
  MethodFactoryConfig config;
  config.base_k = 20;
  config.num_users = 60;
  config.num_items = 50;
  config.seed = 5;
  return config;
}

TEST(MethodFactoryTest, CreatesEveryRegisteredMethod) {
  for (const std::string& name : AllMethods()) {
    auto method = CreateMethod(name, UnitFactory());
    ASSERT_TRUE(method.ok()) << name << ": " << method.status().ToString();
    EXPECT_FALSE((*method)->Name().empty());
  }
}

TEST(MethodFactoryTest, RejectsUnknownNamesAndMissingDomains) {
  EXPECT_EQ(CreateMethod("SimHash", UnitFactory()).status().code(),
            StatusCode::kInvalidArgument);
  MethodFactoryConfig no_domain;
  EXPECT_EQ(CreateMethod("VOS", no_domain).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MethodFactoryTest, EqualMemoryAcrossPaperMethods) {
  // The §V budget: every paper method reports exactly 32·k·|U| bits
  // (VOS's shared array is allocated in 64-bit words, allow rounding).
  const MethodFactoryConfig config = UnitFactory();
  const uint64_t budget_bits = MemoryBudget(config.base_k,
                                            config.num_users).TotalBits();
  for (const std::string& name : PaperMethods()) {
    auto method = CreateMethod(name, config);
    ASSERT_TRUE(method.ok());
    EXPECT_NEAR(static_cast<double>((*method)->MemoryBits()),
                static_cast<double>(budget_bits), 64.0)
        << name;
  }
}

TEST(MethodFactoryTest, PaperMethodsOrder) {
  const auto methods = PaperMethods();
  ASSERT_EQ(methods.size(), 4u);
  EXPECT_EQ(methods[0], "MinHash");
  EXPECT_EQ(methods[3], "VOS");
}

// -------------------------------------------------------- SelectTrackedSet

TEST(TrackedSetTest, SelectsFromStaticGraphAndRequiresOverlap) {
  auto stream = stream::GenerateDatasetByName("toy");
  ASSERT_TRUE(stream.ok());
  const TrackedSet tracked = SelectTrackedSet(*stream, 30, 0, 7);
  EXPECT_EQ(tracked.users.size(), 30u);
  ASSERT_FALSE(tracked.pairs.empty());

  // Verify every tracked pair indeed shares ≥1 item in the static graph.
  exact::ExactStore static_store(stream->num_users());
  for (const stream::Element& e : stream->elements()) {
    if (e.action == stream::Action::kInsert) static_store.Update(e);
  }
  for (const exact::UserPair& pair : tracked.pairs) {
    EXPECT_GE(static_store.CommonItems(pair.u, pair.v), 1u);
  }
}

TEST(TrackedSetTest, MaxPairsCapsSelection) {
  auto stream = stream::GenerateDatasetByName("toy");
  ASSERT_TRUE(stream.ok());
  const TrackedSet capped = SelectTrackedSet(*stream, 30, 10, 7);
  EXPECT_LE(capped.pairs.size(), 10u);
}

// ------------------------------------------------------- ExperimentRunner

TEST(ExperimentTest, RunsProtocolOnUnitDataset) {
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  ExperimentConfig config;
  config.top_users = 15;
  config.max_pairs = 50;
  config.num_checkpoints = 4;
  config.factory.base_k = 20;
  config.factory.seed = 3;
  auto result =
      RunAccuracyExperiment(*stream, {"MinHash", "VOS"}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->stream_name, "unit");
  EXPECT_EQ(result->stream_elements, stream->size());
  EXPECT_GT(result->tracked_pairs, 0u);
  ASSERT_FALSE(result->checkpoints.empty());
  EXPECT_LE(result->checkpoints.size(), 4u);
  EXPECT_EQ(result->Final().t, stream->size());
  for (const Checkpoint& cp : result->checkpoints) {
    ASSERT_EQ(cp.methods.size(), 2u);
    EXPECT_EQ(cp.methods[0].method, "MinHash");
    EXPECT_EQ(cp.methods[1].method, "VOS");
    for (const MethodCheckpoint& mc : cp.methods) {
      EXPECT_GE(mc.metrics.aape, 0.0);
      EXPECT_GE(mc.metrics.armse, 0.0);
      EXPECT_LE(mc.metrics.armse, 1.0 + 1e-9);
    }
  }
}

TEST(ExperimentTest, ChecksFailFast) {
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  ExperimentConfig config;
  config.factory.base_k = 10;
  EXPECT_EQ(
      RunAccuracyExperiment(*stream, {"NoSuchMethod"}, config).status().code(),
      StatusCode::kInvalidArgument);
  const stream::GraphStream empty("empty", 5, 5);
  EXPECT_EQ(RunAccuracyExperiment(empty, {"VOS"}, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExperimentTest, MeasureUpdateRuntimeIsPositive) {
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  MethodFactoryConfig factory;
  factory.base_k = 20;
  for (const std::string& name : PaperMethods()) {
    auto seconds = MeasureUpdateRuntime(*stream, name, factory);
    ASSERT_TRUE(seconds.ok()) << name;
    EXPECT_GT(*seconds, 0.0) << name;
    EXPECT_LT(*seconds, 10.0) << name;
  }
}

TEST(ExperimentTest, MeasureUpdateRuntimeRunsMultiProducerReplay) {
  // The multi-producer path: "VOS-sharded" with ingest_producers > 1
  // makes MeasureUpdateRuntime pre-partition the stream by user and
  // replay with one thread per lane. The timing must come back positive
  // and the method must survive the concurrent replay (the sketch-state
  // equivalence itself is covered in sharded_ingest_test).
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  MethodFactoryConfig factory;
  factory.base_k = 20;
  factory.vos_shards = 4;
  factory.ingest_threads = 2;
  factory.ingest_producers = 3;
  auto seconds = MeasureUpdateRuntime(*stream, "VOS-sharded", factory);
  ASSERT_TRUE(seconds.ok());
  EXPECT_GT(*seconds, 0.0);
  EXPECT_LT(*seconds, 10.0);
  // Synchronous mode advertises one lane regardless of the knob, so the
  // single-producer replay path is taken.
  factory.ingest_threads = 0;
  auto sync_seconds = MeasureUpdateRuntime(*stream, "VOS-sharded", factory);
  ASSERT_TRUE(sync_seconds.ok());
  EXPECT_GT(*sync_seconds, 0.0);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto stream = stream::GenerateDatasetByName("unit");
  ASSERT_TRUE(stream.ok());
  ExperimentConfig config;
  config.top_users = 10;
  config.num_checkpoints = 2;
  config.factory.base_k = 16;
  auto a = RunAccuracyExperiment(*stream, {"VOS", "OPH"}, config);
  auto b = RunAccuracyExperiment(*stream, {"VOS", "OPH"}, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t c = 0; c < a->checkpoints.size(); ++c) {
    for (size_t m = 0; m < a->checkpoints[c].methods.size(); ++m) {
      EXPECT_DOUBLE_EQ(a->checkpoints[c].methods[m].metrics.aape,
                       b->checkpoints[c].methods[m].metrics.aape);
      EXPECT_DOUBLE_EQ(a->checkpoints[c].methods[m].metrics.armse,
                       b->checkpoints[c].methods[m].metrics.armse);
    }
  }
}

}  // namespace
}  // namespace vos::harness
