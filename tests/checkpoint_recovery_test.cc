// Crash-recovery matrix for the sharded ingest fabric (PR 6).
//
// The load-bearing property: Checkpoint() at a Flush barrier + Restore()
// + per-lane replay from ingest_watermarks() reproduces the state of an
// uninterrupted run bit-for-bit — across producers {1,4} × shards {1,4}
// and across every injected fault site (worker kill, update throw, lane
// starvation, torn/corrupt/crashed checkpoint writes). Fault injection is
// deterministic (common/fault_injector.h): specs fire on exact probe-hit
// counts, never on clocks or RNG. The injector is a process-wide
// singleton, so every test disarms in TearDown.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injector.h"
#include "common/random.h"
#include "common/status.h"
#include "core/sharded_vos_method.h"
#include "core/sharded_vos_sketch.h"
#include "core/vos_io.h"
#include "core/vos_sketch.h"
#include "stream/graph_stream.h"
#include "stream/replayer.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::StreamReplayer;
using stream::UserId;

constexpr size_t kBatch = 64;

/// A feasible fully dynamic stream: inserts with interleaved deletions of
/// previously inserted edges (per user, delete follows its insert).
std::vector<Element> DynamicStream(UserId users, size_t elements_target,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> elements;
  elements.reserve(elements_target + elements_target / 4);
  size_t t = 0;
  while (elements.size() < elements_target) {
    const UserId user = static_cast<UserId>(rng.NextBounded(users));
    const ItemId item = static_cast<ItemId>(t++);
    elements.push_back({user, item, Action::kInsert});
    if (rng.NextBernoulli(0.25)) {
      elements.push_back({user, item, Action::kDelete});
    }
  }
  return elements;
}

ShardedVosConfig TestConfig(uint32_t shards, unsigned threads,
                            unsigned producers = 1) {
  ShardedVosConfig config;
  config.base.k = 512;
  config.base.m = 1 << 16;
  config.base.seed = 77;
  config.num_shards = shards;
  config.ingest_threads = threads;
  config.ingest_producers = producers;
  config.queue_capacity = 4;
  return config;
}

/// Feeds each lane's elements[start[p], …) in kBatch-sized batches
/// (StreamReplayer::ReplayBatchedFrom — the recovery half of the
/// watermark contract). Lanes are driven sequentially from this thread;
/// the pipeline contract only forbids concurrent calls on ONE lane.
void FeedLanes(ShardedVosSketch* sketch,
               const std::vector<std::vector<Element>>& lanes,
               const std::vector<uint64_t>& start) {
  for (unsigned p = 0; p < lanes.size(); ++p) {
    StreamReplayer::ReplayBatchedFrom(
        lanes[p].data(), lanes[p].size(), start[p], kBatch,
        [&](const Element* first, size_t count) {
          sketch->UpdateBatch(first, count, p);
        });
  }
}

/// Shard arrays and per-user cardinalities of `sketch` equal
/// `reference`'s, bit for bit.
void ExpectBitIdentical(const ShardedVosSketch& sketch,
                        const ShardedVosSketch& reference,
                        const std::string& label) {
  ASSERT_EQ(sketch.num_shards(), reference.num_shards()) << label;
  for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
    EXPECT_TRUE(sketch.shard(s).array() == reference.shard(s).array())
        << label << " shard=" << s << " arrays diverge";
  }
  for (UserId u = 0; u < sketch.num_users(); ++u) {
    ASSERT_EQ(sketch.Cardinality(u), reference.Cardinality(u))
        << label << " user=" << u;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// One section of the v3 container, located by walking the file.
struct SectionSpan {
  uint32_t type = 0;
  uint32_t id = 0;
  size_t payload_pos = 0;    ///< first payload byte
  size_t payload_bytes = 0;  ///< declared payload size
  size_t end_pos = 0;        ///< one past the trailing CRC
};

template <typename T>
T ReadPod(const std::string& bytes, size_t pos) {
  T value{};
  EXPECT_LE(pos + sizeof(T), bytes.size());
  std::memcpy(&value, bytes.data() + pos, sizeof(T));
  return value;
}

/// Walks a well-formed v3 checkpoint into its section spans.
std::vector<SectionSpan> WalkSections(const std::string& bytes) {
  std::vector<SectionSpan> sections;
  EXPECT_GE(bytes.size(), 16u);
  const uint32_t count = ReadPod<uint32_t>(bytes, 12);
  size_t pos = 16;
  for (uint32_t i = 0; i < count; ++i) {
    SectionSpan span;
    span.type = ReadPod<uint32_t>(bytes, pos);
    span.id = ReadPod<uint32_t>(bytes, pos + 4);
    span.payload_bytes = ReadPod<uint64_t>(bytes, pos + 8);
    span.payload_pos = pos + 16;
    span.end_pos = span.payload_pos + span.payload_bytes + 4;
    EXPECT_LE(span.end_pos, bytes.size());
    sections.push_back(span);
    pos = span.end_pos;
  }
  EXPECT_EQ(pos, bytes.size()) << "walker disagrees with the writer";
  return sections;
}

/// `bytes` with section `span`'s payload replaced by `payload`, its size
/// field and CRC re-sealed: the edit gets past the CRC check, so only the
/// decoder's own checks can refuse it.
std::string ResealSection(const std::string& bytes, const SectionSpan& span,
                          const std::string& payload) {
  const size_t header_pos = span.payload_pos - 16;
  std::string section = bytes.substr(header_pos, 8);  // type | id
  const uint64_t payload_bytes = payload.size();
  section.append(reinterpret_cast<const char*>(&payload_bytes),
                 sizeof(payload_bytes));
  section += payload;
  const uint32_t crc = Crc32(section.data(), section.size());
  section.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return bytes.substr(0, header_pos) + section + bytes.substr(span.end_pos);
}

/// Every test disarms the process-wide injector on the way out so a
/// failing assertion cannot leak an armed fault into the next test.
class CheckpointRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + "/ckpt_recovery_" + name;
  }
};

// ------------------------------------------------- round-trip matrix

/// producers {1,4} × shards {1,4}: checkpoint at the half-way Flush
/// barrier, restore into a fresh process-equivalent instance, replay
/// every lane from its watermark — bit-identical to the uninterrupted
/// run.
TEST_F(CheckpointRecoveryTest, RestorePlusReplayMatchesUninterruptedRun) {
  const std::vector<Element> elements = DynamicStream(300, 4000, 7);
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned producers : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      const ShardedVosConfig config = TestConfig(shards, 2, producers);
      const std::vector<std::vector<Element>> lanes =
          StreamReplayer::SplitByUserLane(elements.data(), elements.size(),
                                          producers);

      // The uninterrupted run: every lane end to end.
      ShardedVosSketch uninterrupted(config, 300);
      FeedLanes(&uninterrupted, lanes,
                std::vector<uint64_t>(producers, 0));
      ASSERT_TRUE(uninterrupted.Flush().ok());

      // The interrupted run: half of every lane, then a checkpoint.
      const std::string path =
          TempPath("matrix_" + std::to_string(shards) + "_" +
                   std::to_string(producers));
      std::vector<uint64_t> cut(producers);
      {
        ShardedVosSketch first(config, 300);
        for (unsigned p = 0; p < producers; ++p) {
          const size_t half = lanes[p].size() / 2;
          StreamReplayer::ReplayBatchedFrom(
              lanes[p].data(), half, 0, kBatch,
              [&](const Element* e, size_t n) {
                first.UpdateBatch(e, n, p);
              });
          cut[p] = half;
        }
        ASSERT_TRUE(first.Checkpoint(path).ok());
        EXPECT_EQ(first.ingest_watermarks(), cut);
      }  // the first instance dies with the checkpoint on disk

      // Recovery in a fresh instance: restore, then replay each lane
      // from its checkpointed watermark.
      ShardedVosSketch recovered(config, 300);
      ASSERT_TRUE(recovered.Restore(path).ok());
      ASSERT_EQ(recovered.ingest_watermarks(), cut)
          << "watermarks must come back from the checkpoint";
      FeedLanes(&recovered, lanes, recovered.ingest_watermarks());
      ASSERT_TRUE(recovered.Flush().ok());
      ExpectBitIdentical(recovered, uninterrupted, "restore+replay");
      EXPECT_EQ(recovered.dropped_elements(), 0u);
    }
  }
}

// -------------------------------------------- fault site: update throw

/// A worker exception poisons exactly its shard: FlushIngest surfaces a
/// sticky non-OK Status, queries keep answering, Checkpoint refuses, and
/// an in-place Restore of the pre-fault checkpoint heals the pipeline so
/// replay completes the recovery bit-for-bit.
TEST_F(CheckpointRecoveryTest, UpdateThrowPoisonsShardAndRestoreHeals) {
  const std::vector<Element> elements = DynamicStream(300, 4000, 11);
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned producers : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      const ShardedVosConfig config = TestConfig(shards, 2, producers);
      const std::vector<std::vector<Element>> lanes =
          StreamReplayer::SplitByUserLane(elements.data(), elements.size(),
                                          producers);

      ShardedVosSketch uninterrupted(config, 300);
      FeedLanes(&uninterrupted, lanes,
                std::vector<uint64_t>(producers, 0));
      ASSERT_TRUE(uninterrupted.Flush().ok());

      const std::string path =
          TempPath("throw_" + std::to_string(shards) + "_" +
                   std::to_string(producers));
      ShardedVosSketch victim(config, 300);
      std::vector<uint64_t> cut(producers);
      for (unsigned p = 0; p < producers; ++p) {
        const size_t half = lanes[p].size() / 2;
        StreamReplayer::ReplayBatchedFrom(
            lanes[p].data(), half, 0, kBatch,
            [&](const Element* e, size_t n) { victim.UpdateBatch(e, n, p); });
        cut[p] = half;
      }
      ASSERT_TRUE(victim.Checkpoint(path).ok());

      // Arm: the very next applied element throws (any shard, any lane).
      FaultSpec spec;
      spec.site = FaultSite::kUpdateThrow;
      FaultInjector::Global().Arm(spec);

      FeedLanes(&victim, lanes, cut);
      const Status degraded = victim.Flush();
      ASSERT_FALSE(degraded.ok());
      EXPECT_EQ(degraded.code(), StatusCode::kInternal) << degraded;
      EXPECT_NE(degraded.message().find("update failed"), std::string::npos)
          << degraded;
      EXPECT_GT(victim.dropped_elements(), 0u);
      // Queries keep serving the degraded state.
      (void)victim.EstimatePair(0, 1);
      // A checkpoint must never cover dropped data.
      const Status refused = victim.Checkpoint(TempPath("throw_refused"));
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;

      // Recovery, in place: Restore heals the poisoning (no worker
      // thread died), watermarks rewind to the checkpoint, replay lands
      // on the uninterrupted state.
      FaultInjector::Global().DisarmAll();
      ASSERT_TRUE(victim.Restore(path).ok());
      ASSERT_TRUE(victim.IngestStatus().ok()) << victim.IngestStatus();
      EXPECT_EQ(victim.dropped_elements(), 0u);
      ASSERT_EQ(victim.ingest_watermarks(), cut);
      FeedLanes(&victim, lanes, victim.ingest_watermarks());
      ASSERT_TRUE(victim.Flush().ok());
      ExpectBitIdentical(victim, uninterrupted, "healed restore+replay");
    }
  }
}

/// Feeds `lanes` one lane after another, in kBatch-sized batches, with
/// `spec` armed: a kUpdateThrow filtered to one shard (and possibly one
/// lane), so the element that fires does not depend on the order in
/// which shards are applied. The contract, identical in every mode: the
/// firing element poisons its shard, that shard takes nothing from it on
/// (each such element counts once in dropped_elements()), and every other
/// shard applies everything.
void ExpectExactUpdateThrow(const ShardedVosConfig& config,
                            const std::vector<std::vector<Element>>& lanes,
                            const FaultSpec& spec) {
  ASSERT_EQ(spec.site, FaultSite::kUpdateThrow);
  ASSERT_GE(spec.shard, 0);
  const auto poisoned = static_cast<uint32_t>(spec.shard);
  ShardedVosSketch victim(config, 300);
  const uint64_t fires_before =
      FaultInjector::Global().fires(FaultSite::kUpdateThrow);
  FaultInjector::Global().Arm(spec);
  for (unsigned p = 0; p < lanes.size(); ++p) {
    StreamReplayer::ReplayBatchedFrom(
        lanes[p].data(), lanes[p].size(), 0, kBatch,
        [&](const Element* e, size_t n) { victim.UpdateBatch(e, n, p); });
  }
  const Status degraded = victim.Flush();
  FaultInjector::Global().DisarmAll();

  // The same feed order, replayed by hand: the (after_hits + 1)-th
  // matching element throws.
  ShardedVosConfig sync_config = config;
  sync_config.ingest_threads = 0;
  ShardedVosSketch expected(sync_config, 300);
  uint64_t hits = 0;
  bool fired = false;
  uint64_t dropped = 0;
  for (unsigned p = 0; p < lanes.size(); ++p) {
    for (const Element& e : lanes[p]) {
      if (victim.ShardOf(e.user) == poisoned) {
        const bool lane_matches =
            spec.producer < 0 || spec.producer == static_cast<int64_t>(p);
        if (!fired && lane_matches && hits++ == spec.after_hits) fired = true;
        if (fired) {
          ++dropped;
          continue;
        }
      }
      expected.Update(e);
    }
  }
  ASSERT_TRUE(fired) << "the stream never reaches the armed hit";
  EXPECT_EQ(FaultInjector::Global().fires(FaultSite::kUpdateThrow),
            fires_before + 1);
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.code(), StatusCode::kInternal) << degraded;
  EXPECT_NE(degraded.message().find("shard " + std::to_string(poisoned) +
                                    " update failed"),
            std::string::npos)
      << degraded;
  EXPECT_EQ(victim.dropped_elements(), dropped);
  ExpectBitIdentical(victim, expected, "poisoned shard frozen, rest live");
}

/// Synchronous and pipelined ingest apply a sub-batch through the same
/// loop, so an update throw drops exactly the poisoned shard's elements
/// from the firing one on: the applied prefix of the firing sub-batch
/// is kept, not counted as dropped.
TEST_F(CheckpointRecoveryTest, UpdateThrowPoisonsAndDropsExactlyInEveryMode) {
  const std::vector<Element> elements = DynamicStream(300, 4000, 17);
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned threads : {0u, 2u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      FaultSpec spec;
      spec.site = FaultSite::kUpdateThrow;
      spec.shard = shards - 1;
      spec.after_hits = 37;
      ExpectExactUpdateThrow(TestConfig(shards, threads), {elements}, spec);
    }
  }
}

/// Synchronous fault probes see the lane the caller named: a spec
/// filtered to producer 1 lets lane 0's whole stream through and fires on
/// lane 1's batch.
TEST_F(CheckpointRecoveryTest, SyncUpdateThrowFiltersOnTheCallersLane) {
  const std::vector<Element> elements = DynamicStream(300, 4000, 19);
  const std::vector<std::vector<Element>> lanes =
      StreamReplayer::SplitByUserLane(elements.data(), elements.size(), 2);
  FaultSpec spec;
  spec.site = FaultSite::kUpdateThrow;
  spec.shard = 2;
  spec.producer = 1;
  spec.after_hits = 5;
  ExpectExactUpdateThrow(TestConfig(4, /*threads=*/0, /*producers=*/2), lanes,
                         spec);
}

// --------------------------------------------- fault site: worker kill

/// A killed worker thread poisons every shard it owns and stays dead: an
/// in-place Restore keeps those shards rejected (FailedPrecondition), a
/// fresh instance restores and replays to the uninterrupted state.
TEST_F(CheckpointRecoveryTest, WorkerKillNeedsFreshInstanceToRecover) {
  const std::vector<Element> elements = DynamicStream(300, 4000, 13);
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned producers : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      const ShardedVosConfig config = TestConfig(shards, 2, producers);
      const std::vector<std::vector<Element>> lanes =
          StreamReplayer::SplitByUserLane(elements.data(), elements.size(),
                                          producers);

      ShardedVosSketch uninterrupted(config, 300);
      FeedLanes(&uninterrupted, lanes,
                std::vector<uint64_t>(producers, 0));
      ASSERT_TRUE(uninterrupted.Flush().ok());

      const std::string path =
          TempPath("kill_" + std::to_string(shards) + "_" +
                   std::to_string(producers));
      std::vector<uint64_t> cut(producers);
      {
        ShardedVosSketch victim(config, 300);
        for (unsigned p = 0; p < producers; ++p) {
          const size_t half = lanes[p].size() / 2;
          StreamReplayer::ReplayBatchedFrom(
              lanes[p].data(), half, 0, kBatch,
              [&](const Element* e, size_t n) {
                victim.UpdateBatch(e, n, p);
              });
          cut[p] = half;
        }
        ASSERT_TRUE(victim.Checkpoint(path).ok());

        // Kill the worker applying the very next batch.
        FaultSpec spec;
        spec.site = FaultSite::kWorkerKill;
        FaultInjector::Global().Arm(spec);

        FeedLanes(&victim, lanes, cut);
        const Status degraded = victim.Flush();
        ASSERT_FALSE(degraded.ok());
        EXPECT_EQ(degraded.code(), StatusCode::kInternal) << degraded;
        EXPECT_NE(degraded.message().find("worker"), std::string::npos)
            << degraded;
        EXPECT_GT(victim.dropped_elements(), 0u);
        EXPECT_GT(FaultInjector::Global().fires(FaultSite::kWorkerKill), 0u);

        // In place, the dead worker's shards stay rejected even after a
        // successful Restore — a dead thread cannot be resurrected.
        FaultInjector::Global().DisarmAll();
        ASSERT_TRUE(victim.Restore(path).ok());
        const Status still = victim.IngestStatus();
        ASSERT_FALSE(still.ok());
        EXPECT_EQ(still.code(), StatusCode::kFailedPrecondition) << still;
        EXPECT_NE(still.message().find("fresh instance"), std::string::npos)
            << still;
      }

      // The documented recovery path: a fresh instance.
      ShardedVosSketch recovered(config, 300);
      ASSERT_TRUE(recovered.Restore(path).ok());
      ASSERT_TRUE(recovered.IngestStatus().ok());
      ASSERT_EQ(recovered.ingest_watermarks(), cut);
      FeedLanes(&recovered, lanes, recovered.ingest_watermarks());
      ASSERT_TRUE(recovered.Flush().ok());
      ExpectBitIdentical(recovered, uninterrupted, "fresh-instance recovery");
    }
  }
}

// ------------------------------------------ fault site: lane starvation

/// A stalled worker plus a bounded queue drives the enqueue deadline:
/// the starved lane's shard is poisoned with DeadlineExceeded instead of
/// the producer hanging forever, and a checkpoint of the degraded
/// pipeline is refused.
TEST_F(CheckpointRecoveryTest, LaneStarvationSurfacesEnqueueDeadline) {
  ShardedVosConfig config = TestConfig(1, 1);
  config.queue_capacity = 1;
  config.enqueue_timeout_ms = 40;
  ShardedVosSketch sketch(config, 300);

  FaultSpec stall;
  stall.site = FaultSite::kLaneStall;
  stall.delay_ms = 250;  // every batch: worker sleeps >> enqueue deadline
  FaultInjector::Global().Arm(stall);

  const std::vector<Element> elements = DynamicStream(300, 1500, 17);
  StreamReplayer::ReplayBatchedFrom(
      elements.data(), elements.size(), 0, kBatch,
      [&](const Element* e, size_t n) { sketch.UpdateBatch(e, n); });
  FaultInjector::Global().DisarmAll();

  const Status degraded = sketch.Flush();
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.code(), StatusCode::kDeadlineExceeded) << degraded;
  EXPECT_NE(degraded.message().find("lane starved"), std::string::npos)
      << degraded;
  EXPECT_GT(sketch.dropped_elements(), 0u);
  // Queries keep serving; checkpoints refuse.
  (void)sketch.EstimatePair(0, 1);
  const Status refused = sketch.Checkpoint(TempPath("starved_refused"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
}

/// A producer on a healthy but stalled lane keeps its enqueue deadline
/// while ANOTHER shard is poisoned: it waits (no busy spin) for room, for
/// its own shard's poisoning or for the deadline, so Flush names the
/// starved shard 0, not shard 1's update failure.
TEST_F(CheckpointRecoveryTest,
       LaneStarvationSurfacesWhileAnotherShardIsPoisoned) {
  ShardedVosConfig config = TestConfig(2, 2);
  config.queue_capacity = 1;
  config.enqueue_timeout_ms = 40;
  ShardedVosSketch sketch(config, 300);

  FaultSpec stall;
  stall.site = FaultSite::kLaneStall;
  stall.shard = 0;
  stall.delay_ms = 300;
  FaultInjector::Global().Arm(stall);
  FaultSpec poison;
  poison.site = FaultSite::kUpdateThrow;
  poison.shard = 1;
  FaultInjector::Global().Arm(poison);

  const std::vector<Element> elements = DynamicStream(300, 4 * kBatch, 23);
  const std::clock_t cpu_start = std::clock();
  sketch.UpdateBatch(elements.data(), kBatch);
  // Shard 1's worker throws on the first batch; shard 0's worker sleeps
  // in it. Every later shard-0 sub-batch after the next one finds the
  // capacity-1 ring full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (size_t b = 1; b < 4; ++b) {
    sketch.UpdateBatch(elements.data() + b * kBatch, kBatch);
  }
  const double feed_cpu_ms =
      1000.0 * static_cast<double>(std::clock() - cpu_start) / CLOCKS_PER_SEC;
  FaultInjector::Global().DisarmAll();

  const Status degraded = sketch.Flush();
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.code(), StatusCode::kDeadlineExceeded) << degraded;
  EXPECT_NE(degraded.message().find("shard 0"), std::string::npos)
      << degraded;
  EXPECT_NE(degraded.message().find("lane starved"), std::string::npos)
      << degraded;
  // A spinning producer would burn the whole 300 ms stall per batch.
  EXPECT_LT(feed_cpu_ms, 150.0) << "the degraded producer busy-spun";
}

/// Flush's own deadline: an expired wait reports DeadlineExceeded but
/// poisons nothing — once the stall is gone the same pipeline drains and
/// lands on the reference state.
TEST_F(CheckpointRecoveryTest, FlushDeadlineExpiresWithoutPoisoning) {
  ShardedVosConfig config = TestConfig(1, 1);
  config.queue_capacity = 64;
  config.flush_timeout_ms = 50;
  ShardedVosSketch sketch(config, 300);
  ShardedVosSketch reference(TestConfig(1, 0), 300);

  const std::vector<Element> elements = DynamicStream(300, 500, 19);
  reference.UpdateBatch(elements.data(), elements.size());

  FaultSpec stall;
  stall.site = FaultSite::kLaneStall;
  stall.delay_ms = 400;
  FaultInjector::Global().Arm(stall);

  StreamReplayer::ReplayBatchedFrom(
      elements.data(), elements.size(), 0, kBatch,
      [&](const Element* e, size_t n) { sketch.UpdateBatch(e, n); });
  const Status timed_out = sketch.Flush();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded) << timed_out;
  EXPECT_EQ(sketch.dropped_elements(), 0u) << "deadline must not drop data";

  // Remove the stall; the pipeline drains on its own and the abandoned
  // wait turns out to have been exactly that — a wait, not a loss.
  FaultInjector::Global().DisarmAll();
  Status drained = sketch.Flush();
  for (int retry = 0; retry < 200 && !drained.ok(); ++retry) {
    ASSERT_EQ(drained.code(), StatusCode::kDeadlineExceeded) << drained;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    drained = sketch.Flush();
  }
  ASSERT_TRUE(drained.ok()) << drained;
  ExpectBitIdentical(sketch, reference, "post-stall drain");
}

// ------------------------------------------- fault site: memory budget

/// Crossing memory_budget_bits degrades gracefully: the offending batch
/// is dropped, the sticky status is ResourceExhausted, nothing OOMs, and
/// Restore heals.
TEST_F(CheckpointRecoveryTest, MemoryBudgetCrossingRejectsBatches) {
  const std::vector<Element> elements = DynamicStream(300, 2000, 23);

  ShardedVosConfig config = TestConfig(1, 1);
  config.queue_capacity = 64;
  {
    // Budget: the static footprint — which counts the dirty-tracking
    // state a planner allocates when it starts — plus room for ~1.5
    // queued batches.
    ShardedVosSketch probe(config, 300);
    probe.shard(0).StartDirtyTracking();
    config.memory_budget_bits =
        probe.MemoryBits() + (kBatch * sizeof(Element) * 8 * 3) / 2;
  }
  ShardedVosSketch sketch(config, 300);
  const std::string path = TempPath("budget");
  ASSERT_TRUE(sketch.Checkpoint(path).ok());  // empty but valid

  // Hold the worker so queued bytes accumulate deterministically.
  FaultSpec stall;
  stall.site = FaultSite::kLaneStall;
  stall.delay_ms = 500;
  FaultInjector::Global().Arm(stall);

  sketch.UpdateBatch(elements.data(), kBatch);      // fills the budget
  sketch.UpdateBatch(elements.data() + kBatch, kBatch);  // crosses it
  FaultInjector::Global().DisarmAll();

  const Status degraded = sketch.Flush();
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.code(), StatusCode::kResourceExhausted) << degraded;
  EXPECT_GE(sketch.dropped_elements(), kBatch);

  ASSERT_TRUE(sketch.Restore(path).ok());
  ASSERT_TRUE(sketch.IngestStatus().ok());
}

/// A budget smaller than the config's own static footprint is a
/// construction-time error, not a pipeline that rejects every batch.
TEST_F(CheckpointRecoveryTest, ValidateConfigRejectsDegenerateConfigs) {
  const ShardedVosConfig good = TestConfig(4, 2, 2);
  EXPECT_TRUE(ShardedVosSketch::ValidateConfig(good, 300).ok());

  ShardedVosConfig bad = good;
  bad.queue_capacity = 0;
  Status status = ShardedVosSketch::ValidateConfig(bad, 300);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("queue_capacity"), std::string::npos)
      << status;

  bad = good;
  bad.ingest_producers = 0;
  status = ShardedVosSketch::ValidateConfig(bad, 300);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("producer"), std::string::npos) << status;

  bad = good;
  bad.num_shards = 0;
  EXPECT_FALSE(ShardedVosSketch::ValidateConfig(bad, 300).ok());

  bad = good;
  bad.base.k = 0;
  EXPECT_FALSE(ShardedVosSketch::ValidateConfig(bad, 300).ok());

  bad = good;
  bad.base.m = 0;
  EXPECT_FALSE(ShardedVosSketch::ValidateConfig(bad, 300).ok());

  bad = good;
  bad.memory_budget_bits = 1;  // far below the static footprint
  status = ShardedVosSketch::ValidateConfig(bad, 300);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("budget"), std::string::npos) << status;
}

// ------------------------------------- torn / corrupt checkpoint files

/// Builds a quiesced 4-shard, 2-lane sketch with a checkpoint at `path`,
/// returning the half-way cut so callers can replay.
struct CheckpointedState {
  std::vector<std::vector<Element>> lanes;
  std::vector<uint64_t> cut;
};

CheckpointedState MakeCheckpoint(const ShardedVosConfig& config,
                                 ShardedVosSketch* sketch,
                                 const std::string& path, uint64_t seed) {
  CheckpointedState state;
  const std::vector<Element> elements = DynamicStream(300, 4000, seed);
  state.lanes = StreamReplayer::SplitByUserLane(
      elements.data(), elements.size(), config.ingest_producers);
  state.cut.resize(config.ingest_producers);
  for (unsigned p = 0; p < config.ingest_producers; ++p) {
    const size_t half = state.lanes[p].size() / 2;
    StreamReplayer::ReplayBatchedFrom(
        state.lanes[p].data(), half, 0, kBatch,
        [&](const Element* e, size_t n) { sketch->UpdateBatch(e, n, p); });
    state.cut[p] = half;
  }
  EXPECT_TRUE(sketch->Checkpoint(path).ok());
  return state;
}

/// Satellite (c): flip one byte in every section, truncate at every
/// section boundary and mid-section — Restore must reject each damaged
/// file with an error naming the section, and must leave the live sketch
/// exactly as it was (never half-applied).
TEST_F(CheckpointRecoveryTest, CorruptAndTornCheckpointsRejectPerSection) {
  const ShardedVosConfig config = TestConfig(4, 2, 2);
  ShardedVosSketch sketch(config, 300);
  const std::string path = TempPath("sections");
  const CheckpointedState state = MakeCheckpoint(config, &sketch, path, 29);
  ASSERT_TRUE(sketch.Flush().ok());

  // A twin at the same cut: the untouched-state reference.
  ShardedVosSketch twin(config, 300);
  for (unsigned p = 0; p < config.ingest_producers; ++p) {
    StreamReplayer::ReplayBatchedFrom(
        state.lanes[p].data(), state.cut[p], 0, kBatch,
        [&](const Element* e, size_t n) { twin.UpdateBatch(e, n, p); });
  }
  ASSERT_TRUE(twin.Flush().ok());

  const std::string pristine = ReadFileBytes(path);
  const std::vector<SectionSpan> sections = WalkSections(pristine);
  ASSERT_GE(sections.size(), 7u)  // manifest + dense_map + watermarks + 4
      << "expected every section type in a 4-shard checkpoint";
  const std::string damaged = TempPath("sections_damaged");

  // One flipped byte per section payload → CRC mismatch naming it.
  for (const SectionSpan& section : sections) {
    SCOPED_TRACE(std::string("flip in section ") +
                 ShardedCheckpointIo::SectionName(section.type) + "[" +
                 std::to_string(section.id) + "]");
    ASSERT_GT(section.payload_bytes, 0u);
    std::string bytes = pristine;
    bytes[section.payload_pos + section.payload_bytes / 2] ^= 0x01;
    WriteFileBytes(damaged, bytes);
    const Status rejected = sketch.Restore(damaged);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.code(), StatusCode::kCorruption) << rejected;
    EXPECT_NE(rejected.message().find(
                  ShardedCheckpointIo::SectionName(section.type)),
              std::string::npos)
        << rejected;
    ExpectBitIdentical(sketch, twin, "after rejected flip");
    ASSERT_TRUE(sketch.IngestStatus().ok());
  }

  // Truncation at every section boundary and mid-payload → rejected,
  // live state untouched.
  std::vector<size_t> cuts = {0, 8, 15};
  for (const SectionSpan& section : sections) {
    cuts.push_back(section.payload_pos + section.payload_bytes / 2);
    cuts.push_back(section.end_pos - 2);  // inside the trailing CRC
    if (section.end_pos < pristine.size()) cuts.push_back(section.end_pos);
  }
  for (const size_t cut : cuts) {
    SCOPED_TRACE("truncate at byte " + std::to_string(cut));
    WriteFileBytes(damaged, pristine.substr(0, cut));
    const Status rejected = sketch.Restore(damaged);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.code(), StatusCode::kCorruption) << rejected;
    ExpectBitIdentical(sketch, twin, "after rejected truncation");
    ASSERT_TRUE(sketch.IngestStatus().ok());
  }

  // Trailing garbage is as fatal as missing bytes.
  WriteFileBytes(damaged, pristine + std::string(1, '\0'));
  const Status oversized = sketch.Restore(damaged);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.code(), StatusCode::kCorruption) << oversized;
  ExpectBitIdentical(sketch, twin, "after rejected oversized file");

  // The pristine file still restores (the victim was never poisoned by
  // any of the rejections above).
  ASSERT_TRUE(sketch.Restore(path).ok());
  ExpectBitIdentical(sketch, twin, "pristine restore");
}

/// The injected tear/corrupt sites produce silently damaged files (Save
/// reports success — exactly what a torn write looks like) that Restore
/// then refuses; the injected crash site fails the Save and leaves the
/// previous checkpoint byte-identical on disk.
TEST_F(CheckpointRecoveryTest, InjectedCheckpointFaultsAreCaughtOnRestore) {
  const ShardedVosConfig config = TestConfig(4, 2, 2);
  ShardedVosSketch sketch(config, 300);
  const std::string path = TempPath("inject");
  const CheckpointedState state = MakeCheckpoint(config, &sketch, path, 31);
  const std::string pristine = ReadFileBytes(path);

  // Tear: only the first 200 bytes land, Save still reports success.
  FaultSpec tear;
  tear.site = FaultSite::kCheckpointTear;
  tear.byte_offset = 200;
  FaultInjector::Global().Arm(tear);
  const std::string torn_path = TempPath("inject_torn");
  ASSERT_TRUE(sketch.Checkpoint(torn_path).ok())
      << "a torn write is silent by definition";
  EXPECT_EQ(ReadFileBytes(torn_path).size(), 200u);
  Status rejected = sketch.Restore(torn_path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kCorruption) << rejected;

  // Corrupt: one flipped byte, Save reports success, Restore refuses.
  FaultInjector::Global().DisarmAll();
  FaultSpec corrupt;
  corrupt.site = FaultSite::kCheckpointCorrupt;
  corrupt.byte_offset = pristine.size() / 2;
  FaultInjector::Global().Arm(corrupt);
  const std::string corrupt_path = TempPath("inject_corrupt");
  ASSERT_TRUE(sketch.Checkpoint(corrupt_path).ok());
  rejected = sketch.Restore(corrupt_path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kCorruption) << rejected;

  // Crash before rename: Save fails loudly and the PREVIOUS checkpoint
  // at `path` is untouched, byte for byte.
  FaultInjector::Global().DisarmAll();
  FaultSpec crash;
  crash.site = FaultSite::kCheckpointCrash;
  FaultInjector::Global().Arm(crash);
  // Advance the state so the attempted checkpoint would differ.
  FeedLanes(&sketch, state.lanes, state.cut);
  const Status failed = sketch.Checkpoint(path);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed;
  EXPECT_EQ(ReadFileBytes(path), pristine)
      << "a crashed commit must leave the old checkpoint intact";
  // And the old checkpoint still restores into a fresh instance.
  FaultInjector::Global().DisarmAll();
  ShardedVosSketch recovered(config, 300);
  ASSERT_TRUE(recovered.Restore(path).ok());
  EXPECT_EQ(recovered.ingest_watermarks(), state.cut);
}

/// A checkpoint is bound to its configuration: restoring under a
/// different geometry is refused by the manifest check, naming the field.
TEST_F(CheckpointRecoveryTest, ManifestMismatchIsRefused) {
  const ShardedVosConfig config = TestConfig(4, 2, 2);
  ShardedVosSketch sketch(config, 300);
  const std::string path = TempPath("manifest");
  MakeCheckpoint(config, &sketch, path, 37);

  ShardedVosConfig other = config;
  other.num_shards = 2;
  ShardedVosSketch wrong_shards(other, 300);
  Status refused = wrong_shards.Restore(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;

  other = config;
  other.base.seed = 78;
  ShardedVosSketch wrong_seed(other, 300);
  refused = wrong_seed.Restore(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;

  ShardedVosSketch wrong_users(config, 301);
  refused = wrong_users.Restore(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
}

/// The manifest's psi byte comes from outside the program: a value other
/// than 0 (the seeded mixer, the only ψ) is Corruption naming psi, even
/// when the section's CRC is intact and the live sketch is untouched.
TEST_F(CheckpointRecoveryTest, ManifestUnknownPsiIsCorruption) {
  const ShardedVosConfig config = TestConfig(4, 2, 2);
  ShardedVosSketch sketch(config, 300);
  const std::string path = TempPath("manifest_psi");
  MakeCheckpoint(config, &sketch, path, 43);
  ASSERT_TRUE(sketch.Flush().ok());

  const std::string bytes = ReadFileBytes(path);
  const std::vector<SectionSpan> sections = WalkSections(bytes);
  ASSERT_FALSE(sections.empty());
  const SectionSpan& manifest = sections[0];
  ASSERT_EQ(manifest.type, ShardedCheckpointIo::kSectionManifest);
  // Manifest payload: u32 shards | u32 lanes | u32 k | u64 m | u64 seed |
  // u8 psi | u32 num_users.
  constexpr size_t kPsiOffset = 4 + 4 + 4 + 8 + 8;
  std::string payload =
      bytes.substr(manifest.payload_pos, manifest.payload_bytes);
  ASSERT_EQ(static_cast<uint8_t>(payload[kPsiOffset]), VosSketchIo::kPsiMixer);
  payload[kPsiOffset] = 1;
  const std::string damaged = TempPath("manifest_psi_damaged");
  WriteFileBytes(damaged, ResealSection(bytes, manifest, payload));

  ShardedVosSketch reference(config, 300);
  ASSERT_TRUE(reference.Restore(path).ok());
  const Status rejected = sketch.Restore(damaged);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kCorruption) << rejected;
  EXPECT_NE(rejected.message().find("psi"), std::string::npos) << rejected;
  ExpectBitIdentical(sketch, reference, "after rejected psi byte");
}

/// Restore reports a missing file as IoError and any container version
/// but 3 as Corruption naming the version.
TEST_F(CheckpointRecoveryTest, RestoreRejectsMissingFileAndOtherVersions) {
  const ShardedVosConfig config = TestConfig(4, 0);
  ShardedVosSketch sketch(config, 300);
  const std::string path = TempPath("version");
  MakeCheckpoint(config, &sketch, path, 53);

  EXPECT_EQ(sketch.Restore(TempPath("version_absent")).code(),
            StatusCode::kIoError);
  const std::string pristine = ReadFileBytes(path);
  const std::string damaged = TempPath("version_damaged");
  for (const uint32_t version : {0u, 2u, ShardedCheckpointIo::kVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string bytes = pristine;
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    WriteFileBytes(damaged, bytes);
    const Status rejected = sketch.Restore(damaged);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.code(), StatusCode::kCorruption) << rejected;
    EXPECT_NE(rejected.message().find("unsupported checkpoint version"),
              std::string::npos)
        << rejected;
  }
  ASSERT_TRUE(sketch.Restore(path).ok());
}

// ------------------------------------- shard-section decoder (ParseFields)

// Field offsets in a shard section's payload (VosSketchIo::SerializeFields):
// u32 k | u64 m | u64 seed | u8 psi | u64 f_seed | u32 num_users
// | u64 num_words | array words | cardinalities.
constexpr size_t kFieldK = 0;
constexpr size_t kFieldPsi = 4 + 8 + 8;
constexpr size_t kFieldNumUsers = kFieldPsi + 1 + 8;
constexpr size_t kFieldNumWords = kFieldNumUsers + 4;

template <typename T>
void WritePod(std::string* bytes, size_t pos, T value) {
  ASSERT_LE(pos + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + pos, &value, sizeof(T));
}

/// Checkpoints a 4-shard sketch whose shards hold m = 1000 array bits (not
/// a multiple of 64), lets `edit` rewrite shard[1]'s payload, re-seals
/// the section, and restores the edited file into the live sketch, which
/// has ingested on past the checkpoint. Restore must return Corruption
/// naming shard[1] and `expected`, and leave the live sketch as it was.
void ExpectShardEditRejected(const std::string& path,
                             const std::function<void(std::string*)>& edit,
                             const std::string& expected) {
  ShardedVosConfig config = TestConfig(4, 0);
  config.base.m = 4 * 1000;
  ShardedVosSketch sketch(config, 300);
  const CheckpointedState state = MakeCheckpoint(config, &sketch, path, 47);
  FeedLanes(&sketch, state.lanes, state.cut);
  ShardedVosSketch twin(config, 300);
  FeedLanes(&twin, state.lanes, std::vector<uint64_t>(state.cut.size(), 0));

  const std::string pristine = ReadFileBytes(path);
  const SectionSpan* shard = nullptr;
  const std::vector<SectionSpan> sections = WalkSections(pristine);
  for (const SectionSpan& section : sections) {
    if (section.type == ShardedCheckpointIo::kSectionShard &&
        section.id == 1) {
      shard = &section;
    }
  }
  ASSERT_NE(shard, nullptr);
  std::string payload =
      pristine.substr(shard->payload_pos, shard->payload_bytes);
  ASSERT_EQ(ResealSection(pristine, *shard, payload), pristine);
  edit(&payload);
  const std::string damaged = path + "_edited";
  WriteFileBytes(damaged, ResealSection(pristine, *shard, payload));

  const Status rejected = sketch.Restore(damaged);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kCorruption) << rejected;
  EXPECT_NE(rejected.message().find("shard[1]"), std::string::npos)
      << rejected;
  EXPECT_NE(rejected.message().find(expected), std::string::npos)
      << rejected;
  ExpectBitIdentical(sketch, twin, "after rejected shard edit");
  EXPECT_TRUE(sketch.IngestStatus().ok());
}

TEST_F(CheckpointRecoveryTest, ShardSectionUnknownPsiIsCorruption) {
  ExpectShardEditRejected(
      TempPath("shard_psi"),
      [](std::string* payload) { (*payload)[kFieldPsi] = 1; },
      "unknown psi kind 1");
}

/// A num_words that disagrees with m is refused before any allocation.
TEST_F(CheckpointRecoveryTest, ShardSectionLyingWordCountIsCorruption) {
  ExpectShardEditRejected(
      TempPath("shard_words"),
      [](std::string* payload) {
        WritePod<uint64_t>(payload, kFieldNumWords, uint64_t{1} << 40);
      },
      "inconsistent geometry");
}

/// A num_users the payload cannot back is refused before any allocation.
TEST_F(CheckpointRecoveryTest, ShardSectionLyingUserCountIsCorruption) {
  ExpectShardEditRejected(
      TempPath("shard_users"),
      [](std::string* payload) {
        WritePod<uint32_t>(payload, kFieldNumUsers, UINT32_MAX);
      },
      "header declares");
}

TEST_F(CheckpointRecoveryTest, ShardSectionZeroKIsCorruption) {
  ExpectShardEditRejected(
      TempPath("shard_k"),
      [](std::string* payload) { WritePod<uint32_t>(payload, kFieldK, 0); },
      "inconsistent geometry");
}

/// m = 1000 leaves bits 40..63 of the last array word outside the array.
TEST_F(CheckpointRecoveryTest, ShardSectionStrayBitsBeyondMIsCorruption) {
  ExpectShardEditRejected(
      TempPath("shard_stray"),
      [](std::string* payload) {
        const uint64_t words = ReadPod<uint64_t>(*payload, kFieldNumWords);
        ASSERT_EQ(words, (1000u + 63) / 64);
        const size_t last = kFieldNumWords + 8 + (words - 1) * 8;
        WritePod<uint64_t>(payload, last,
                           ReadPod<uint64_t>(*payload, last) |
                               (uint64_t{1} << 63));
      },
      "stray bits beyond m");
}

TEST_F(CheckpointRecoveryTest, ShardSectionTrailingBytesAreCorruption) {
  ExpectShardEditRejected(
      TempPath("shard_trailing"),
      [](std::string* payload) { payload->append(3, '\x7f'); },
      "3 trailing bytes");
}

// ------------------------------- stress: checkpoint under ingest load

/// Checkpoint-under-load: waves of concurrent producers saturate
/// capacity-1 rings (every push back-pressures) while a poller hammers
/// the lock-free HasPendingIngest; between waves the pipeline is
/// checkpointed at the Flush barrier. Each wave's checkpoint must
/// restore into a fresh instance and, replayed from its watermarks by
/// concurrent producers, land bit-identical on the uninterrupted state.
/// CI's sanitizer legs raise VOS_STRESS_PRODUCERS to oversubscribe the
/// park/unpark handshakes.
TEST_F(CheckpointRecoveryTest, CheckpointUnderLoadStress) {
  unsigned producers = 4;
  if (const char* env = std::getenv("VOS_STRESS_PRODUCERS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1 && parsed <= 64) producers = static_cast<unsigned>(parsed);
  }
  ShardedVosConfig config = TestConfig(4, 2, producers);
  config.queue_capacity = 1;  // every sub-batch rides the back-pressure path
  const std::vector<Element> elements = DynamicStream(300, 6000, 47);
  const std::vector<std::vector<Element>> lanes =
      StreamReplayer::SplitByUserLane(elements.data(), elements.size(),
                                      producers);

  ShardedVosSketch uninterrupted(config, 300);
  FeedLanes(&uninterrupted, lanes, std::vector<uint64_t>(producers, 0));
  ASSERT_TRUE(uninterrupted.Flush().ok());

  ShardedVosSketch sketch(config, 300);
  std::atomic<bool> stop_polling{false};
  std::thread monitor([&] {
    while (!stop_polling.load()) (void)sketch.HasPendingIngest();
  });

  constexpr unsigned kWaves = 3;
  std::vector<std::vector<uint64_t>> wave_cut(kWaves);
  std::vector<std::string> wave_path(kWaves);
  std::vector<uint64_t> fed(producers, 0);
  for (unsigned wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        // This wave's share of the lane, in small batches so each lane
        // crosses its ring many times per wave.
        const uint64_t until = wave + 1 == kWaves
                                   ? lanes[p].size()
                                   : (wave + 1) * lanes[p].size() / kWaves;
        StreamReplayer::ReplayBatchedFrom(
            lanes[p].data(), until, fed[p], /*batch=*/16,
            [&](const Element* e, size_t n) { sketch.UpdateBatch(e, n, p); });
        (void)sketch.FlushProducer(p);
        fed[p] = until;
      });
    }
    for (std::thread& t : threads) t.join();
    wave_path[wave] = TempPath("underload_w" + std::to_string(wave));
    ASSERT_TRUE(sketch.Checkpoint(wave_path[wave]).ok()) << "wave " << wave;
    wave_cut[wave] = sketch.ingest_watermarks();
    for (unsigned p = 0; p < producers; ++p) {
      EXPECT_EQ(wave_cut[wave][p], fed[p]) << "wave " << wave;
    }
  }
  stop_polling.store(true);
  monitor.join();
  ASSERT_TRUE(sketch.Flush().ok());
  ASSERT_EQ(sketch.dropped_elements(), 0u);
  ExpectBitIdentical(sketch, uninterrupted, "final wave state");

  // Every wave's checkpoint is a valid recovery point: restore fresh,
  // replay each lane's tail concurrently, land on the uninterrupted
  // state bit-for-bit.
  for (unsigned wave = 0; wave < kWaves; ++wave) {
    SCOPED_TRACE("recover from wave " + std::to_string(wave));
    ShardedVosSketch recovered(config, 300);
    ASSERT_TRUE(recovered.Restore(wave_path[wave]).ok());
    ASSERT_EQ(recovered.ingest_watermarks(), wave_cut[wave]);
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        StreamReplayer::ReplayBatchedFrom(
            lanes[p].data(), lanes[p].size(), wave_cut[wave][p], kBatch,
            [&](const Element* e, size_t n) {
              recovered.UpdateBatch(e, n, p);
            });
        (void)recovered.FlushProducer(p);
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_TRUE(recovered.Flush().ok());
    ExpectBitIdentical(recovered, uninterrupted, "recovered from wave");
  }
}

// ------------------------- method layer: degraded pipeline keeps serving

/// The harness-facing contract: FlushIngest surfaces the poisoned
/// pipeline, PrepareQuery declines to rebuild on degraded state, and
/// EstimatePair keeps answering from the last good snapshot bit-for-bit.
TEST_F(CheckpointRecoveryTest, MethodServesLastSnapshotWhileDegraded) {
  ShardedVosConfig config = TestConfig(1, 1);
  ShardedVosMethod method(config, 300);
  const std::vector<Element> elements = DynamicStream(300, 3000, 43);

  method.UpdateBatch(elements.data(), elements.size() / 2);
  ASSERT_TRUE(method.FlushIngest().ok());
  std::vector<UserId> tracked;
  for (UserId u = 0; u < 16; ++u) tracked.push_back(u);
  method.PrepareQuery(tracked);
  const PairEstimate before = method.EstimatePair(2, 3);

  // Poison on the next applied element: with one shard the whole write
  // path degrades, so the sketch state cannot move past the snapshot.
  FaultSpec spec;
  spec.site = FaultSite::kUpdateThrow;
  FaultInjector::Global().Arm(spec);
  method.UpdateBatch(elements.data() + elements.size() / 2,
                     elements.size() - elements.size() / 2);
  const Status degraded = method.FlushIngest();
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.code(), StatusCode::kInternal) << degraded;

  // PrepareQuery on a degraded pipeline keeps the old snapshot.
  method.PrepareQuery(tracked);
  const PairEstimate after = method.EstimatePair(2, 3);
  EXPECT_EQ(before.common, after.common);
  EXPECT_EQ(before.jaccard, after.jaccard);
}

}  // namespace
}  // namespace vos::core
