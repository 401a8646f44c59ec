// Tests for the sharded ingestion engine: ShardRouter determinism,
// batched replay equivalence, and — the load-bearing property —
// ShardedVosSketch producing exactly the state of S independent
// VosSketches fed the routed sub-streams, for every shard count, thread
// count and pipeline mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/query_planner.h"
#include "core/sharded_vos_method.h"
#include "core/sharded_vos_sketch.h"
#include "core/vos_sketch.h"
#include "exact/exact_store.h"
#include "stream/graph_stream.h"
#include "stream/replayer.h"
#include "stream/shard_router.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::GraphStream;
using stream::ItemId;
using stream::ShardRouter;
using stream::StreamReplayer;
using stream::UserId;

/// A feasible fully dynamic stream: inserts with interleaved deletions of
/// previously inserted edges (per user, delete follows its insert).
std::vector<Element> DynamicStream(UserId users, size_t elements_target,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> elements;
  elements.reserve(elements_target + elements_target / 4);
  size_t t = 0;
  while (elements.size() < elements_target) {
    const UserId user =
        static_cast<UserId>(rng.NextBounded(users));
    const ItemId item = static_cast<ItemId>(t++);
    elements.push_back({user, item, Action::kInsert});
    if (rng.NextBernoulli(0.25)) {
      elements.push_back({user, item, Action::kDelete});
    }
  }
  return elements;
}

ShardedVosConfig TestConfig(uint32_t shards, unsigned threads,
                            uint32_t k = 512, uint64_t m = 1 << 16) {
  ShardedVosConfig config;
  config.base.k = k;
  config.base.m = m;
  config.base.seed = 77;
  config.num_shards = shards;
  config.ingest_threads = threads;
  config.batch_size = 64;  // small so the pipeline exercises many batches
  config.queue_capacity = 4;  // exercise back-pressure
  return config;
}

/// Splits a stream into per-producer sub-streams by user (user % P), so
/// each user's whole history rides one lane — every lane's sub-stream
/// stays feasible under any cross-lane interleaving.
std::vector<std::vector<Element>> SplitByProducer(
    const std::vector<Element>& elements, unsigned producers) {
  std::vector<std::vector<Element>> lanes(producers);
  for (const Element& e : elements) {
    lanes[e.user % producers].push_back(e);
  }
  return lanes;
}

/// Flushed shard arrays and cardinalities of `sketch` equal `reference`'s.
void ExpectStateIdentical(const ShardedVosSketch& sketch,
                          const ShardedVosSketch& reference,
                          const std::string& label) {
  ASSERT_EQ(sketch.num_shards(), reference.num_shards()) << label;
  for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
    EXPECT_TRUE(sketch.shard(s).array() == reference.shard(s).array())
        << label << " shard=" << s;
  }
  for (UserId u = 0; u < sketch.num_users(); ++u) {
    ASSERT_EQ(sketch.Cardinality(u), reference.Cardinality(u))
        << label << " user=" << u;
  }
}

// ------------------------------------------------------------ ShardRouter

TEST(ShardRouterTest, DeterministicAndComplete) {
  const ShardRouter router(4, 99);
  const ShardRouter twin(4, 99);
  std::vector<size_t> per_shard(4, 0);
  for (UserId u = 0; u < 10000; ++u) {
    const uint32_t s = router.ShardOf(u);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, twin.ShardOf(u));
    ++per_shard[s];
  }
  // Hash routing spreads dense user ids roughly evenly (no striping).
  for (size_t count : per_shard) {
    EXPECT_GT(count, 2000u);
    EXPECT_LT(count, 3000u);
  }
}

TEST(DenseShardMapTest, RankOrderAssignmentRoundTrips) {
  const ShardRouter router(4, 99);
  const stream::DenseShardMap map(router, 1000);
  ASSERT_EQ(map.num_shards(), 4u);
  ASSERT_EQ(map.num_users(), 1000u);
  UserId total = 0;
  for (uint32_t s = 0; s < 4; ++s) total += map.shard_size(s);
  EXPECT_EQ(total, 1000u) << "every user lives in exactly one shard";
  std::vector<UserId> next_local(4, 0);
  for (UserId u = 0; u < 1000; ++u) {
    const uint32_t s = map.ShardOf(u);
    EXPECT_EQ(s, router.ShardOf(u));
    // Rank-order: local ids are dense and increase with the global id.
    EXPECT_EQ(map.LocalOf(u), next_local[s]++);
    EXPECT_EQ(map.GlobalOf(s, map.LocalOf(u)), u) << "user " << u;
  }
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(next_local[s], map.shard_size(s));
  }
}

TEST(DenseShardMapTest, RouteRewritesToLocalsAndTags) {
  const ShardRouter router(3, 7);
  const stream::DenseShardMap map(router, 50);
  std::vector<Element> elements = DynamicStream(50, 300, 3);
  const std::vector<Element> originals = elements;
  std::vector<uint16_t> tags(elements.size());
  map.Route(elements.data(), elements.size(), tags.data());
  for (size_t i = 0; i < elements.size(); ++i) {
    EXPECT_EQ(tags[i], router.ShardOf(originals[i].user));
    EXPECT_EQ(elements[i].user, map.LocalOf(originals[i].user));
    EXPECT_EQ(elements[i].item, originals[i].item);
    EXPECT_EQ(elements[i].action, originals[i].action);
  }
}

TEST(DenseShardMapTest, PartitionEmitsShardOwnedSubBatchesInLaneOrder) {
  const ShardRouter router(3, 7);
  const stream::DenseShardMap map(router, 50);
  const std::vector<Element> elements = DynamicStream(50, 300, 3);
  std::vector<std::vector<Element>> per_shard(3);
  map.Partition(elements.data(), elements.size(), &per_shard);

  // Reconstruct each shard's expected sub-stream (stream order, local
  // ids) and compare: Partition must preserve per-shard FIFO order.
  std::vector<std::vector<Element>> expected(3);
  size_t total = 0;
  for (const Element& e : elements) {
    Element local = e;
    local.user = map.LocalOf(e.user);
    expected[map.ShardOf(e.user)].push_back(local);
  }
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(per_shard[s], expected[s]) << "shard " << s;
    total += per_shard[s].size();
  }
  EXPECT_EQ(total, elements.size());
}

TEST(DenseShardMapDeathTest, RouteAndPartitionRejectOutOfRangeUsers) {
  // Regression: Route used to VOS_DCHECK only, so a Release build read
  // local_of_[user] out of bounds for a corrupt stream element. Both
  // ingest handoffs must abort loudly instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ShardRouter router(2, 7);
  const stream::DenseShardMap map(router, 10);
  std::vector<Element> elements = {{10, 1, Action::kInsert}};
  std::vector<uint16_t> tags(1);
  EXPECT_DEATH(map.Route(elements.data(), 1, tags.data()), "out of range");
  std::vector<std::vector<Element>> per_shard(2);
  EXPECT_DEATH(map.Partition(elements.data(), 1, &per_shard),
               "out of range");
  // LocalOf is the read behind the synchronous ingest and query paths —
  // it must be always-on too, so sync-mode Update aborts rather than
  // routing a corrupt element to a garbage (shard, local id) in Release.
  EXPECT_DEATH(map.LocalOf(10), "out of range");
  ShardedVosSketch sync_sketch(TestConfig(2, /*threads=*/0), 10);
  EXPECT_DEATH(sync_sketch.Update({10, 1, Action::kInsert}),
               "out of range");
}

TEST(ShardRouterTest, PartitionAndTagAgreeWithShardOf) {
  const ShardRouter router(3, 7);
  const std::vector<Element> elements = DynamicStream(50, 500, 3);
  std::vector<uint16_t> tags(elements.size());
  router.Tag(elements.data(), elements.size(), tags.data());
  std::vector<std::vector<Element>> per_shard(3);
  router.Partition(elements.data(), elements.size(), &per_shard);
  size_t total = 0;
  for (size_t i = 0; i < elements.size(); ++i) {
    EXPECT_EQ(tags[i], router.ShardOf(elements[i].user));
  }
  for (uint32_t s = 0; s < 3; ++s) {
    total += per_shard[s].size();
    for (const Element& e : per_shard[s]) {
      EXPECT_EQ(router.ShardOf(e.user), s);
    }
  }
  EXPECT_EQ(total, elements.size());
}

// ---------------------------------------------------------- ReplayBatched

TEST(ReplayBatchedTest, SameElementsAndCheckpointsAsReplay) {
  GraphStream stream("test", 30, 1 << 20);
  for (const Element& e : DynamicStream(30, 157, 11)) stream.Append(e);

  for (size_t batch_size : {0u, 1u, 7u, 64u, 1000u}) {
    std::vector<Element> serial_elements, batched_elements;
    std::vector<size_t> serial_checkpoints, batched_checkpoints;
    StreamReplayer::Replay(
        stream, 5, [&](const Element& e) { serial_elements.push_back(e); },
        [&](size_t t) { serial_checkpoints.push_back(t); });
    size_t applied = 0;
    StreamReplayer::ReplayBatched(
        stream, 5, batch_size,
        [&](const Element* first, size_t count) {
          if (batch_size > 0) {
            EXPECT_LE(count, batch_size);
          }
          batched_elements.insert(batched_elements.end(), first,
                                  first + count);
          applied += count;
        },
        [&](size_t t) {
          // A checkpoint sees exactly the first t elements applied.
          EXPECT_EQ(applied, t);
          batched_checkpoints.push_back(t);
        });
    EXPECT_EQ(batched_elements, serial_elements) << "batch=" << batch_size;
    EXPECT_EQ(batched_checkpoints, serial_checkpoints)
        << "batch=" << batch_size;
  }
}

// ------------------------------------------------------- ShardedVosSketch

TEST(ShardedVosSketchTest, OneShardConfigEqualsBase) {
  const ShardedVosConfig config = TestConfig(1, 0);
  const VosConfig shard = ShardedVosSketch::ShardConfig(config, 0);
  EXPECT_EQ(shard.m, config.base.m);
  EXPECT_EQ(shard.seed, config.base.seed);
  EXPECT_EQ(shard.f_seed, config.base.f_seed);
}

TEST(ShardedVosSketchTest, OneShardMatchesPlainVosSketchBitForBit) {
  const std::vector<Element> elements = DynamicStream(40, 2000, 21);
  const ShardedVosConfig config = TestConfig(1, 0);
  VosSketch plain(config.base, 40);
  ShardedVosSketch sharded(config, 40);
  for (const Element& e : elements) {
    plain.Update(e);
    sharded.Update(e);
  }
  EXPECT_TRUE(sharded.shard(0).array() == plain.array());
  for (UserId u = 0; u < 40; ++u) {
    EXPECT_EQ(sharded.Cardinality(u), plain.Cardinality(u));
  }
}

/// The tentpole equivalence: for every shard count, each shard's state is
/// bit-identical to a standalone VosSketch (same ShardConfig, sized for
/// the shard's dense local id space) fed the routed sub-stream rewritten
/// to dense local ids — and therefore same-shard pair estimates equal the
/// standalone estimates exactly.
TEST(ShardedVosSketchTest, ShardsMatchIndependentSketchesOnRoutedSubstreams) {
  const UserId users = 60;
  const std::vector<Element> elements = DynamicStream(users, 4000, 33);
  for (uint32_t shards : {1u, 2u, 3u, 4u}) {
    const ShardedVosConfig config = TestConfig(shards, 0);
    ShardedVosSketch sharded(config, users);
    sharded.UpdateBatch(elements.data(), elements.size());

    // Independent references: one standalone sketch per shard — sized
    // for that shard's users only — fed the routed sub-stream in
    // shard-local coordinates.
    std::vector<VosSketch> references;
    for (uint32_t s = 0; s < shards; ++s) {
      references.emplace_back(ShardedVosSketch::ShardConfig(config, s),
                              sharded.ShardUserCount(s));
    }
    for (const Element& e : elements) {
      Element local = e;
      local.user = sharded.LocalIdOf(e.user);
      references[sharded.ShardOf(e.user)].Update(local);
    }
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_TRUE(sharded.shard(s).array() == references[s].array())
          << "shards=" << shards << " shard=" << s;
    }
    for (UserId u = 0; u < users; ++u) {
      EXPECT_EQ(sharded.Cardinality(u),
                references[sharded.ShardOf(u)].Cardinality(
                    sharded.LocalIdOf(u)))
          << "user " << u;
    }

    // Same-shard pair estimates are bit-identical to the standalone
    // estimator on the reference sketch.
    VosEstimator estimator(config.base.k);
    size_t same_shard_pairs = 0;
    for (UserId u = 0; u < users; ++u) {
      for (UserId v = u + 1; v < users; ++v) {
        if (sharded.ShardOf(u) != sharded.ShardOf(v)) continue;
        ++same_shard_pairs;
        const VosSketch& ref = references[sharded.ShardOf(u)];
        const BitVector du = ref.ExtractUserSketch(sharded.LocalIdOf(u));
        const BitVector dv = ref.ExtractUserSketch(sharded.LocalIdOf(v));
        const double alpha =
            static_cast<double>(du.HammingDistance(dv)) / config.base.k;
        const PairEstimate expected =
            estimator.Estimate(ref.Cardinality(sharded.LocalIdOf(u)),
                               ref.Cardinality(sharded.LocalIdOf(v)), alpha,
                               ref.beta());
        const PairEstimate actual = sharded.EstimatePair(u, v);
        EXPECT_EQ(actual.common, expected.common)
            << "shards=" << shards << " pair=(" << u << "," << v << ")";
        EXPECT_EQ(actual.jaccard, expected.jaccard);
      }
    }
    EXPECT_GT(same_shard_pairs, 0u);
  }
}

TEST(ShardedVosSketchTest, MemoryBitsIndependentOfShardCountAndUpdates) {
  // The dense remap is the point: per-user state must NOT scale with S.
  // m divisible by 64·S so per-shard word rounding cannot differ.
  const UserId users = 512;
  const auto total_bits = [&](uint32_t shards) {
    ShardedVosConfig config = TestConfig(shards, 0, /*k=*/256,
                                         /*m=*/uint64_t{1} << 16);
    ShardedVosSketch sketch(config, users);
    return sketch.MemoryBits();
  };
  const size_t at2 = total_bits(2);
  EXPECT_EQ(at2, total_bits(4));
  EXPECT_EQ(at2, total_bits(8));
  // The S=1 fast path skips the remap tables (64 bits/user); everything
  // else — arrays, counters, epochs — matches.
  EXPECT_EQ(total_bits(1) + users * 64u, at2);

  // Fixed-size: ingesting must not change the reported memory.
  ShardedVosConfig config = TestConfig(4, 0, 256, uint64_t{1} << 16);
  ShardedVosSketch sketch(config, users);
  const size_t before = sketch.MemoryBits();
  const std::vector<Element> elements = DynamicStream(users, 3000, 17);
  sketch.UpdateBatch(elements.data(), elements.size());
  EXPECT_EQ(sketch.MemoryBits(), before);

  // And the per-user counters/epochs are no longer invisible: the total
  // exceeds the arrays alone.
  size_t arrays = 0;
  for (uint32_t s = 0; s < 4; ++s) arrays += sketch.shard(s).MemoryBits();
  EXPECT_GT(before, arrays);
}

/// The memory-budget floor counts every bit MemoryBits() can report —
/// arrays, per-user state, remap tables, and the dirty epochs and
/// changed-word summaries an incremental planner allocates when it starts
/// tracking — so a budget of exactly the tracked sketch's MemoryBits() is
/// accepted and one bit less is rejected. A fresh sketch tracks nothing
/// and reports less. m is not a multiple of 64·64·S, so every shard's
/// array and summary round up to whole words.
TEST(ShardedVosSketchTest, MemoryBudgetValidationMatchesMemoryBits) {
  const UserId users = 500;
  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosConfig config =
        TestConfig(shards, 0, /*k=*/256, /*m=*/(uint64_t{1} << 16) + 777);
    ShardedVosSketch sketch(config, users);
    const uint64_t fresh = sketch.MemoryBits();
    QueryPlanner planner(sketch, {}, QueryOptions{1});
    planner.Rebuild({0, 1, 2});
    planner.Refresh();  // captures incremental state: tracking starts
    const uint64_t bits = sketch.MemoryBits();
    EXPECT_GT(bits, fresh) << "S=" << shards;
    config.memory_budget_bits = bits;
    EXPECT_TRUE(ShardedVosSketch::ValidateConfig(config, users).ok())
        << "S=" << shards;
    config.memory_budget_bits = bits - 1;
    EXPECT_EQ(ShardedVosSketch::ValidateConfig(config, users).code(),
              StatusCode::kInvalidArgument)
        << "S=" << shards;
  }
}

/// The async pipeline must land on exactly the synchronous pipeline's
/// state for every thread count — in-shard order is preserved through
/// tagging, shared batches and per-worker queues.
TEST(ShardedVosSketchTest, AsyncPipelineMatchesSynchronousForAllThreadCounts) {
  const UserId users = 50;
  const std::vector<Element> elements = DynamicStream(users, 5000, 55);
  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardedVosSketch reference(TestConfig(shards, 0), users);
    reference.UpdateBatch(elements.data(), elements.size());
    for (unsigned threads : {1u, 2u, 8u}) {
      ShardedVosSketch sharded(TestConfig(shards, threads), users);
      // Mix the per-element and batched entry points (order must hold).
      const size_t split = elements.size() / 3;
      for (size_t t = 0; t < split; ++t) sharded.Update(elements[t]);
      sharded.UpdateBatch(elements.data() + split, elements.size() - split);
      ASSERT_TRUE(sharded.Flush().ok());
      EXPECT_FALSE(sharded.HasPendingIngest());
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_TRUE(sharded.shard(s).array() == reference.shard(s).array())
            << "shards=" << shards << " threads=" << threads
            << " shard=" << s;
      }
      for (UserId u = 0; u < users; ++u) {
        ASSERT_EQ(sharded.Cardinality(u), reference.Cardinality(u))
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

/// The multi-producer tentpole equivalence: P concurrent producer
/// threads, each feeding its own per-user sub-stream through its own
/// (producer, shard) queues, land on exactly the state of synchronously
/// routing the same per-producer streams — across the full
/// {producers} × {shards} × {queue capacity} matrix. This is the test
/// the TSAN CI job leans on for the new queue topology.
TEST(ShardedVosSketchTest, MultiProducerMatrixMatchesSynchronousRouting) {
  const UserId users = 64;
  const std::vector<Element> elements = DynamicStream(users, 6000, 91);
  for (const unsigned producers : {1u, 2u, 4u, 8u}) {
    const std::vector<std::vector<Element>> lanes =
        SplitByProducer(elements, producers);
    for (const uint32_t shards : {1u, 4u}) {
      // Reference: synchronous routing of the same per-producer streams,
      // applied lane by lane (the final state is interleaving-invariant —
      // XOR flips and ±1 counters commute — so any lane order works).
      ShardedVosSketch reference(TestConfig(shards, 0), users);
      for (const std::vector<Element>& lane : lanes) {
        reference.UpdateBatch(lane.data(), lane.size());
      }
      for (const size_t capacity : {size_t{1}, size_t{64}}) {
        ShardedVosConfig config = TestConfig(shards, /*threads=*/2);
        config.ingest_producers = producers;
        config.queue_capacity = capacity;
        config.batch_size = 48;
        ShardedVosSketch sketch(config, users);
        ASSERT_EQ(sketch.num_producers(), producers);
        std::vector<std::thread> threads;
        threads.reserve(producers);
        for (unsigned p = 0; p < producers; ++p) {
          threads.emplace_back([&, p] {
            const std::vector<Element>& lane = lanes[p];
            // Mix the per-element and batched entry points: lane order
            // must hold across both.
            const size_t split = lane.size() / 3;
            for (size_t t = 0; t < split; ++t) sketch.Update(lane[t], p);
            const size_t chunk = 100;  // several sub-batches per queue
            for (size_t t = split; t < lane.size(); t += chunk) {
              sketch.UpdateBatch(lane.data() + t,
                                 std::min(chunk, lane.size() - t), p);
            }
            EXPECT_TRUE(sketch.FlushProducer(p).ok());
          });
        }
        for (std::thread& t : threads) t.join();
        ASSERT_TRUE(sketch.Flush().ok());
        EXPECT_FALSE(sketch.HasPendingIngest());
        ExpectStateIdentical(sketch, reference,
                             "producers=" + std::to_string(producers) +
                                 " shards=" + std::to_string(shards) +
                                 " capacity=" + std::to_string(capacity));
      }
    }
  }
}

/// Flush under back-pressure: capacity-1 queues with tiny batches force
/// producers to block on full queues repeatedly, while each lane calls
/// FlushProducer mid-stream with every other lane still feeding. The
/// barrier must neither deadlock nor lose elements.
TEST(ShardedVosSketchTest, FlushProducerUnderBackPressure) {
  const UserId users = 48;
  // CI's sanitizer legs raise the lane count (VOS_STRESS_PRODUCERS=8) so
  // the park/unpark handshakes run with more producers than cores.
  unsigned producers = 4;
  if (const char* env = std::getenv("VOS_STRESS_PRODUCERS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1 && parsed <= 64) producers = static_cast<unsigned>(parsed);
  }
  const uint32_t shards = 4;
  const std::vector<Element> elements = DynamicStream(users, 4000, 13);
  const std::vector<std::vector<Element>> lanes =
      SplitByProducer(elements, producers);

  ShardedVosSketch reference(TestConfig(shards, 0), users);
  for (const std::vector<Element>& lane : lanes) {
    reference.UpdateBatch(lane.data(), lane.size());
  }

  ShardedVosConfig config = TestConfig(shards, /*threads=*/2);
  config.ingest_producers = producers;
  config.queue_capacity = 1;  // every second sub-batch blocks the lane
  config.batch_size = 8;
  ShardedVosSketch sketch(config, users);
  // HasPendingIngest is polled concurrently with the feeding lanes: the
  // answer is advisory mid-ingest, but the read itself must be race-free
  // (this is what the TSAN job checks here).
  std::atomic<bool> stop_polling{false};
  std::thread monitor([&] {
    while (!stop_polling.load()) (void)sketch.HasPendingIngest();
  });
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::vector<Element>& lane = lanes[p];
      for (size_t t = 0; t < lane.size(); ++t) {
        sketch.Update(lane[t], p);
        // A mid-stream flush per ~quarter: the lane barrier must complete
        // while the other three lanes keep their queues saturated.
        if (t % (lane.size() / 4 + 1) == 0) {
          EXPECT_TRUE(sketch.FlushProducer(p).ok());
        }
      }
      EXPECT_TRUE(sketch.FlushProducer(p).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  stop_polling.store(true);
  monitor.join();
  ASSERT_TRUE(sketch.Flush().ok());
  EXPECT_FALSE(sketch.HasPendingIngest());
  ExpectStateIdentical(sketch, reference, "flush-under-back-pressure");
}

TEST(ShardedVosSketchTest, SyncModeForcesSingleProducerLane) {
  ShardedVosConfig config = TestConfig(4, /*threads=*/0);
  config.ingest_producers = 8;
  const ShardedVosSketch sketch(config, 16);
  EXPECT_EQ(sketch.num_producers(), 1u)
      << "inline ingestion is single-threaded by contract";
}

TEST(ShardedVosSketchTest, CrossShardEstimatesTrackExactTruth) {
  // Two users with a planted 60% overlap, plus background fill. Whatever
  // shards they land in, the cross-shard estimator should recover the
  // overlap to sketch accuracy.
  const UserId users = 40;
  ShardedVosConfig config = TestConfig(4, 0, /*k=*/4096, /*m=*/1 << 20);
  ShardedVosSketch sharded(config, users);
  exact::ExactStore exact(users);
  const auto apply = [&](const Element& e) {
    sharded.Update(e);
    exact.Update(e);
  };
  for (uint32_t i = 0; i < 500; ++i) {
    apply({0, i, Action::kInsert});
    apply({1, i < 300 ? i : i + 10000, Action::kInsert});
  }
  for (UserId u = 2; u < users; ++u) {
    for (uint32_t i = 0; i < 100; ++i) {
      apply({u, 20000 + u * 1000 + i, Action::kInsert});
    }
  }
  const double truth = static_cast<double>(exact.CommonItems(0, 1));
  const PairEstimate estimate = sharded.EstimatePair(0, 1);
  EXPECT_NEAR(estimate.common, truth, 60.0);  // ±~3σ at k=4096
}

// ------------------------------------------------------- ShardedVosMethod

TEST(ShardedVosMethodTest, CachedAndUncachedEstimatesAgree) {
  const UserId users = 30;
  const std::vector<Element> elements = DynamicStream(users, 3000, 71);
  ShardedVosConfig config = TestConfig(4, 2);
  ShardedVosMethod method(config, users);
  method.UpdateBatch(elements.data(), elements.size());
  ASSERT_TRUE(method.FlushIngest().ok());

  std::vector<UserId> tracked;
  for (UserId u = 0; u < users; u += 2) tracked.push_back(u);
  // Uncached estimates first (no PrepareQuery yet).
  std::vector<PairEstimate> uncached;
  for (size_t i = 0; i < tracked.size(); ++i) {
    for (size_t j = i + 1; j < tracked.size(); ++j) {
      uncached.push_back(method.EstimatePair(tracked[i], tracked[j]));
    }
  }
  method.PrepareQuery(tracked);
  size_t idx = 0;
  for (size_t i = 0; i < tracked.size(); ++i) {
    for (size_t j = i + 1; j < tracked.size(); ++j, ++idx) {
      const PairEstimate cached = method.EstimatePair(tracked[i], tracked[j]);
      EXPECT_EQ(cached.common, uncached[idx].common)
          << "pair=(" << tracked[i] << "," << tracked[j] << ")";
      EXPECT_EQ(cached.jaccard, uncached[idx].jaccard);
    }
  }
  method.InvalidateQueryCache();
  EXPECT_EQ(method.EstimatePair(tracked[0], tracked[1]).common,
            uncached[0].common);
}

/// Producer-lane plumbing through the SimilarityMethod interface: driving
/// "VOS-sharded" with concurrent lanes via the base-class virtuals lands
/// on the state of the default single-producer path.
TEST(ShardedVosMethodTest, ProducerLaneIngestMatchesSingleProducer) {
  const UserId users = 40;
  const std::vector<Element> elements = DynamicStream(users, 4000, 29);
  ShardedVosConfig config = TestConfig(4, /*threads=*/2);
  config.ingest_producers = 3;

  ShardedVosMethod reference(TestConfig(4, 0), users);
  reference.UpdateBatch(elements.data(), elements.size());
  ASSERT_TRUE(reference.FlushIngest().ok());

  ShardedVosMethod method(config, users);
  SimilarityMethod& base = method;  // exercise the virtual dispatch
  EXPECT_EQ(base.ConcurrentIngestProducers(), 3u);
  const std::vector<std::vector<Element>> lanes = SplitByProducer(elements, 3);
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < 3; ++p) {
    threads.emplace_back([&, p] {
      base.UpdateBatch(lanes[p].data(), lanes[p].size(), p);
      EXPECT_TRUE(base.FlushIngest(p).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(base.FlushIngest().ok());

  for (UserId u = 0; u < users; ++u) {
    for (UserId v = u + 1; v < users; ++v) {
      const PairEstimate expected = reference.EstimatePair(u, v);
      const PairEstimate actual = method.EstimatePair(u, v);
      ASSERT_EQ(actual.common, expected.common)
          << "pair=(" << u << "," << v << ")";
      ASSERT_EQ(actual.jaccard, expected.jaccard);
    }
  }
}

/// A feasible fully dynamic stream over overlapping item pools: user u
/// toggles items of pool u % 5, inserting an absent edge and deleting a
/// present one, so same-pool users keep Jaccard well above zero while
/// roughly every other element is a deletion.
std::vector<Element> TogglingPoolStream(UserId users, size_t elements,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<bool>> present(users, std::vector<bool>(150));
  std::vector<Element> stream;
  stream.reserve(elements);
  while (stream.size() < elements) {
    const auto user = static_cast<UserId>(rng.NextBounded(users));
    const auto slot = static_cast<uint32_t>(rng.NextBounded(150));
    const ItemId item = (user % 5) * 1000 + slot;
    stream.push_back({user, item,
                      present[user][slot] ? Action::kDelete : Action::kInsert});
    present[user][slot] = !present[user][slot];
  }
  return stream;
}

/// The planner is the method's only query cache: the first PrepareQuery
/// of a set snapshots it rebuild-only, the second captures incremental
/// state, later ones patch, a new set starts over rebuild-only, and
/// Restore drops the planner. After every step the cached
/// estimates over A ∪ B plus one user outside both must equal
/// ShardedVosSketch::EstimatePair bit for bit, and the planner's
/// AllPairsAbove its scalar reference.
TEST(ShardedVosMethodTest, PrepareQueryRefreshesSameSetRebuildsNewSet) {
  const UserId users = 40;
  const std::vector<Element> elements = TogglingPoolStream(users, 6000, 83);
  const size_t third = elements.size() / 3;
  const std::vector<UserId> a = {0, 1, 5, 6, 10, 11, 15, 16, 20, 21};
  const std::vector<UserId> b = {10, 11, 12, 15, 16, 17, 25, 26, 27, 30};
  std::vector<UserId> probed = a;
  probed.insert(probed.end(), b.begin(), b.end());
  probed.push_back(39);  // in neither set
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned threads : {0u, 2u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ShardedVosMethod method(TestConfig(shards, threads), users);
      method.SetQueryThreads(2);
      const auto check = [&](const std::string& step, bool incremental) {
        SCOPED_TRACE(step);
        for (UserId u : probed) {
          for (UserId v : probed) {
            const PairEstimate want = method.sketch().EstimatePair(u, v);
            const PairEstimate got = method.EstimatePair(u, v);
            ASSERT_EQ(got.common, want.common) << "pair=(" << u << "," << v
                                               << ")";
            ASSERT_EQ(got.jaccard, want.jaccard);
          }
        }
        ASSERT_NE(method.planner(), nullptr);
        EXPECT_EQ(method.planner()->incremental(), incremental);
        for (const double tau : {0.05, 0.2}) {
          const auto got = method.planner()->AllPairsAbove(tau);
          const auto want = method.planner()->AllPairsAboveReference(tau);
          ASSERT_EQ(got.size(), want.size()) << "tau=" << tau;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].u, want[i].u) << "tau=" << tau << " pair " << i;
            EXPECT_EQ(got[i].v, want[i].v) << "tau=" << tau << " pair " << i;
            EXPECT_EQ(got[i].common, want[i].common);
            EXPECT_EQ(got[i].jaccard, want[i].jaccard);
          }
        }
      };
      const auto ingest = [&](size_t begin, size_t end) {
        method.UpdateBatch(elements.data() + begin, end - begin);
        ASSERT_TRUE(method.FlushIngest().ok());
      };

      const std::string path = ::testing::TempDir() +
                               "/sharded_method_refresh_" +
                               std::to_string(shards) + "_" +
                               std::to_string(threads);
      ingest(0, third);
      ASSERT_TRUE(method.Checkpoint(path).ok());
      method.PrepareQuery(a);
      check("first PrepareQuery(A)", false);
      ASSERT_FALSE(method.planner()->AllPairsAbove(0.2).empty());
      ingest(third, 2 * third);
      method.PrepareQuery(a);
      check("second PrepareQuery(A)", true);
      ingest(2 * third, elements.size());
      method.PrepareQuery(a);
      check("PrepareQuery(A) refresh", true);
      method.PrepareQuery(a);  // nothing changed: a refresh touches no row
      check("PrepareQuery(A) empty refresh", true);
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_EQ(
            method.planner()->shard_index(s).last_refresh_dirty_fraction(),
            0.0);
      }
      method.PrepareQuery(b);
      check("PrepareQuery(B)", false);
      ASSERT_TRUE(method.Restore(path).ok());
      EXPECT_EQ(method.planner(), nullptr);
      method.PrepareQuery(b);
      check("PrepareQuery(B) after Restore", false);
      std::remove(path.c_str());
    }
  }
}

/// Incremental state and dirty tracking are paid only by a caller that
/// prepares the same set twice: prepare–estimate–invalidate cycles (the
/// Figure-3 harness) keep one rebuild-only snapshot and never track, and
/// InvalidateQueryCache drops the planner.
TEST(ShardedVosMethodTest, OnlyARepeatedSetBuildsIncrementalState) {
  const UserId users = 40;
  const std::vector<Element> elements = TogglingPoolStream(users, 3000, 7);
  const std::vector<UserId> tracked = {0, 2, 4, 6, 8, 10, 12, 14};
  for (const uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedVosMethod method(TestConfig(shards, 0), users);
    const auto tracks = [&] {
      bool any = false;
      for (uint32_t s = 0; s < shards; ++s) {
        any = any || method.sketch().shard(s).tracks_dirty();
      }
      return any;
    };
    const size_t chunk = elements.size() / 4;
    for (size_t c = 0; c < 4; ++c) {
      method.UpdateBatch(elements.data() + c * chunk, chunk);
      ASSERT_TRUE(method.FlushIngest().ok());
      method.PrepareQuery(tracked);
      ASSERT_NE(method.planner(), nullptr);
      EXPECT_FALSE(method.planner()->incremental());
      EXPECT_EQ(method.EstimatePair(0, 2).common,
                method.sketch().EstimatePair(0, 2).common);
      method.InvalidateQueryCache();
      EXPECT_EQ(method.planner(), nullptr);
    }
    EXPECT_FALSE(tracks());
    method.PrepareQuery(tracked);
    method.PrepareQuery(tracked);
    EXPECT_TRUE(method.planner()->incremental());
    EXPECT_TRUE(tracks());
  }
}

/// Past SimilarityIndex::IncrementalFits (here candidates·k = 1025 · 2¹⁶
/// > 2²⁶) a repeated set stays rebuild-only: every PrepareQuery extracts
/// the snapshots again without incremental state or dirty tracking, none
/// aborts, and each snapshot equals a fresh rebuild-only one bit for bit.
TEST(ShardedVosMethodTest, RepeatedSetPastTheFitBoundStaysRebuildOnly) {
  const UserId users = 1100;
  const uint32_t k = 1 << 16;
  const uint64_t m = 1 << 20;
  std::vector<UserId> tracked;
  for (UserId u = 0; u < 1025; ++u) tracked.push_back(u);
  ASSERT_FALSE(SimilarityIndex::IncrementalFits(m, k, tracked.size()));
  ASSERT_TRUE(SimilarityIndex::IncrementalFits(m, k, tracked.size() - 1));
  const std::vector<Element> elements = DynamicStream(users, 6000, 43);
  const size_t third = elements.size() / 3;
  ShardedVosMethod method(TestConfig(1, 0, k, m), users);
  method.SetQueryThreads(2);
  for (size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE("PrepareQuery " + std::to_string(c + 1));
    const size_t end = c == 2 ? elements.size() : (c + 1) * third;
    method.UpdateBatch(elements.data() + c * third, end - c * third);
    ASSERT_TRUE(method.FlushIngest().ok());
    method.PrepareQuery(tracked);
    ASSERT_NE(method.planner(), nullptr);
    EXPECT_FALSE(method.planner()->incremental());
    EXPECT_FALSE(method.sketch().shard(0).tracks_dirty());
    const Snapshot& index = method.planner()->shard_index(0);
    const std::shared_ptr<const Snapshot> fresh =
        Snapshot::Build(method.sketch().shard(0), index.candidates());
    ASSERT_EQ(index.candidate_count(), tracked.size());
    EXPECT_EQ(index.beta(), fresh->beta());
    EXPECT_EQ(index.row_cardinalities(), fresh->row_cardinalities());
    const size_t row_bytes = index.matrix().words_per_row() * sizeof(uint64_t);
    for (size_t p = 0; p < index.candidate_count(); ++p) {
      ASSERT_EQ(index.sorted_to_candidate(p), fresh->sorted_to_candidate(p));
      ASSERT_EQ(std::memcmp(index.matrix().Row(p), fresh->matrix().Row(p),
                            row_bytes),
                0)
          << "row " << p;
    }
  }
}

// -------------------------------------------------------- back-pressure

/// Small-sketch geometry (k = 512, m = 2^16) for the back-pressure test.
ShardedVosConfig PlannerConfig(uint32_t shards) {
  ShardedVosConfig config;
  config.base.k = 512;
  config.base.m = 1 << 16;
  config.base.seed = 31;
  config.num_shards = shards;
  return config;
}

TEST(ShardedVosSketchTest, CapacityOneRingsBackPressureMatchSyncRouting) {
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
  // Capacity-1 rings with 8-element batches guarantee contention
  // somewhere: at least one park or in-ring save must be observed.
  EXPECT_GT(spin.push_parks + spin.push_spin_saves + spin.idle_parks, 0u);

  // The back-pressured pipeline still lands on the synchronous state
  // (the equivalence contract spinning and parking must never touch).
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
                sync_spin.idle_parks,
            0u);
}

// ---------------------------------------------------------- dirty tracking

TEST(DirtyTrackingTest, UpdateMarksOnceAndClearResets) {
  VosSketch sketch(ShardedVosSketch::ShardConfig(TestConfig(1, 0), 0), 10);
  sketch.Update({5, 99, Action::kInsert});  // before tracking: not recorded
  sketch.StartDirtyTracking();
  EXPECT_EQ(sketch.dirty_user_count(), 0u);
  sketch.Update({3, 100, Action::kInsert});
  sketch.Update({3, 101, Action::kInsert});
  sketch.Update({7, 102, Action::kInsert});
  EXPECT_EQ(sketch.dirty_user_count(), 2u);  // users 3 and 7, each once
  EXPECT_TRUE(sketch.IsDirty(3));
  EXPECT_TRUE(sketch.IsDirty(7));
  EXPECT_FALSE(sketch.IsDirty(4));
  EXPECT_FALSE(sketch.IsDirty(5));
  sketch.ClearDirtyUsers();
  EXPECT_EQ(sketch.dirty_user_count(), 0u);
  EXPECT_FALSE(sketch.IsDirty(3));
  sketch.Update({3, 100, Action::kDelete});
  EXPECT_EQ(sketch.dirty_user_count(), 1u);
  EXPECT_TRUE(sketch.IsDirty(3));
  EXPECT_FALSE(sketch.IsDirty(7));
}

/// Tracking starts only when an incremental planner starts it: ingest in
/// every mode, a rebuild-only planner and the method's live estimates
/// leave every shard untracked, with no summary and no dirty users.
TEST(DirtyTrackingTest, SketchNoPlannerConsumesNeverTracks) {
  const std::vector<Element> elements = DynamicStream(80, 3000, 29);
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned threads : {0u, 2u}) {
      const std::string label =
          "S=" + std::to_string(shards) + " T=" + std::to_string(threads);
      ShardedVosSketch sketch(TestConfig(shards, threads), 80);
      const size_t fresh = sketch.MemoryBits();
      for (size_t i = 0; i < elements.size(); i += 100) {
        sketch.UpdateBatch(elements.data() + i,
                           std::min<size_t>(100, elements.size() - i));
      }
      sketch.Update(elements.front());
      ASSERT_TRUE(sketch.Flush().ok()) << label;
      QueryPlanner rebuild_only(sketch);
      rebuild_only.Rebuild({0, 1, 2, 3});
      (void)rebuild_only.EstimatePair(0, 1);
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_FALSE(sketch.shard(s).tracks_dirty()) << label << " s=" << s;
        EXPECT_TRUE(sketch.shard(s).changed_words().empty()) << label;
        EXPECT_EQ(sketch.shard(s).dirty_user_count(), 0u) << label;
      }
      EXPECT_EQ(sketch.MemoryBits(), fresh) << label;
    }
  }
}

/// User ids come from the stream or the caller: one beyond num_users
/// must abort in both ingest calls, synchronous and pipelined, and in
/// EstimatePair, at one shard (no remap table to catch it) and at four.
TEST(ShardedVosSketchDeathTest, OutOfRangeUserAbortsInEveryMode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Element bad{UserId{1} << 30, 1, Action::kInsert};
  const std::vector<Element> batch = {{3, 1, Action::kInsert}, bad};
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned threads : {0u, 2u}) {
      SCOPED_TRACE("S=" + std::to_string(shards) +
                   " T=" + std::to_string(threads));
      EXPECT_DEATH(
          {
            ShardedVosSketch sketch(TestConfig(shards, threads), 10);
            sketch.Update(bad);
            (void)sketch.Flush();
          },
          "out of range");
      EXPECT_DEATH(
          {
            ShardedVosSketch sketch(TestConfig(shards, threads), 10);
            sketch.UpdateBatch(batch.data(), batch.size());
            (void)sketch.Flush();
          },
          "out of range");
    }
    const ShardedVosSketch sketch(TestConfig(shards, 0), 10);
    EXPECT_DEATH((void)sketch.EstimatePair(3, bad.user), "out of range");
  }
}

}  // namespace
}  // namespace vos::core
