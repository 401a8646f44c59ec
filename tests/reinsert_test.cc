// Regression test: streams that delete and later re-insert the same edge
// (feasible per §II) must flow through the whole pipeline — sketches,
// exact store, and the tracked-set selection that builds the static view.

#include <gtest/gtest.h>

#include "core/sharded_vos_method.h"
#include "harness/experiment.h"
#include "stream/graph_stream.h"

namespace vos::harness {
namespace {

using stream::Action;
using stream::GraphStream;

GraphStream ReinsertingStream() {
  GraphStream s("reinsert", 6, 12);
  // Users 0..3 share items 0..5; edges churn: delete then re-insert.
  for (stream::UserId u = 0; u < 4; ++u) {
    for (stream::ItemId i = 0; i < 6; ++i) s.Append(u, i, Action::kInsert);
  }
  for (stream::UserId u = 0; u < 4; ++u) {
    s.Append(u, 0, Action::kDelete);
    s.Append(u, 1, Action::kDelete);
  }
  for (stream::UserId u = 0; u < 4; ++u) {
    s.Append(u, 0, Action::kInsert);  // re-insert after deletion
    s.Append(u, 6 + u, Action::kInsert);
  }
  return s;
}

TEST(ReinsertTest, StreamIsFeasible) {
  EXPECT_TRUE(ReinsertingStream().Validate().ok());
}

TEST(ReinsertTest, SelectTrackedSetCountsEdgesOnce) {
  const GraphStream s = ReinsertingStream();
  const TrackedSet tracked = SelectTrackedSet(s, 4, 0, 1);
  EXPECT_EQ(tracked.users.size(), 4u);
  // All C(4,2)=6 pairs share items in the ever-inserted graph.
  EXPECT_EQ(tracked.pairs.size(), 6u);
}

TEST(ReinsertTest, FullProtocolRunsOnReinsertingStream) {
  ExperimentConfig config;
  config.top_users = 4;
  config.num_checkpoints = 2;
  config.factory.base_k = 32;
  config.factory.seed = 5;
  auto result =
      RunAccuracyExperiment(ReinsertingStream(), {"VOS", "MinHash"}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->checkpoints.back().t, ReinsertingStream().size());
}

TEST(ReinsertTest, VosParityHandlesReinsertExactly) {
  core::ShardedVosConfig config;  // one shard: the paper's VOS
  config.base.k = 1024;
  config.base.m = 1 << 14;
  core::ShardedVosMethod a(config, 2), b(config, 2);
  // a: plain insert of items 0..49 for both users.
  // b: same, but item 7 is deleted and re-inserted for user 0.
  for (stream::ItemId i = 0; i < 50; ++i) {
    a.Update({0, i, Action::kInsert});
    a.Update({1, i, Action::kInsert});
    b.Update({0, i, Action::kInsert});
    b.Update({1, i, Action::kInsert});
  }
  b.Update({0, 7, Action::kDelete});
  b.Update({0, 7, Action::kInsert});
  EXPECT_DOUBLE_EQ(a.EstimatePair(0, 1).common, b.EstimatePair(0, 1).common);
}

}  // namespace
}  // namespace vos::harness
