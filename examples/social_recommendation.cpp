// Collaborative filtering over a live subscription stream (the motivating
// application of the paper's introduction, cf. TrustSVD [2]).
//
// A synthetic "YouTube-like" community subscribes and unsubscribes to
// channels over time. For a focal user we continuously maintain, via one
// shared VOS sketch:
//   * their most similar peers (by estimated Jaccard), and
//   * channel recommendations — channels the most similar peer follows that
//     the focal user does not.
//
// An exact store runs alongside purely for demonstration, so every printed
// estimate is shown next to the truth. A production deployment would keep
// only the sketch (the whole point: the sketch is ~32 bits/user·register
// instead of full adjacency).
//
// Run: ./build/examples/social_recommendation

#include <cstdio>
#include <vector>

#include "core/sharded_vos_method.h"
#include "exact/exact_store.h"
#include "stream/dataset.h"

namespace {

using vos::core::QueryPlanner;
using vos::core::ShardedVosConfig;
using vos::core::ShardedVosMethod;
using vos::stream::UserId;

}  // namespace

int main() {
  // The "toy" preset: 400 users, 1,500 channels, 100k subscriptions with
  // two ~50% massive unsubscription waves (Trièst-style).
  auto generated = vos::stream::GenerateDatasetByName("toy");
  VOS_CHECK(generated.ok()) << generated.status().ToString();
  const vos::stream::GraphStream& stream = *generated;

  // One shard: the sketch is configured exactly as a standalone
  // VosSketch(config.base), and the method's planner answers the queries.
  ShardedVosConfig config;
  config.base.k = 6400;
  config.base.m = uint64_t{1} << 23;
  ShardedVosMethod method(config, stream.num_users());
  vos::exact::ExactStore exact(stream.num_users());

  const UserId focal = 3;  // a high-activity user in this preset
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 64; ++u) candidates.push_back(u);

  // The batch query engine: PrepareQuery snapshots every candidate
  // digest once per checkpoint (the first call extracts them
  // thread-parallel, later calls patch only the bits that changed), then
  // the planner's TopK is one single-threaded pass of row kernels that
  // skips rows unable to beat the running k-th best, instead of per-pair
  // sketch reconstructions.
  // Replay the stream; at a few checkpoints, surface neighbors and
  // recommendations.
  const size_t checkpoint_every = stream.size() / 4;
  for (size_t t = 0; t < stream.size(); ++t) {
    method.Update(stream[t]);
    exact.Update(stream[t]);
    if ((t + 1) % checkpoint_every != 0) continue;

    std::printf("=== t = %zu (focal user %u follows %u channels) ===\n",
                t + 1, focal, method.sketch().Cardinality(focal));
    method.PrepareQuery(candidates);
    const auto peers = method.planner()->TopK(focal, 3);
    for (const QueryPlanner::Entry& peer : peers) {
      std::printf("  peer %3u: estimated J = %.3f (exact %.3f)\n", peer.user,
                  peer.jaccard, exact.Jaccard(focal, peer.user));
    }
    if (!peers.empty()) {
      // Recommend up to 5 channels the best peer follows and focal doesn't.
      // (Channel lookup uses the exact store — recommendation *content*
      // needs the peer's list; the sketch's job was finding the peer.)
      std::printf("  recommendations from peer %u:", peers[0].user);
      int shown = 0;
      for (vos::stream::ItemId channel : exact.Items(peers[0].user)) {
        if (exact.Items(focal).count(channel)) continue;
        std::printf(" %u", channel);
        if (++shown == 5) break;
      }
      std::printf("\n");
    }
  }
  std::printf("done: %zu stream elements, sketch memory %zu KiB, "
              "beta = %.4f\n",
              stream.size(), method.MemoryBits() / 8192,
              method.sketch().shard(0).beta());
  return 0;
}
