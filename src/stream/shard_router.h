// ShardRouter: deterministic user → shard partitioning for sharded
// ingestion.
//
// A fully dynamic graph stream shards naturally by *user*: every element
// (u, i, ±) touches only user u's state, so routing by hash(u) % S gives S
// sub-streams that never share a user. Two consequences make this the
// right partition key (and not, say, the item or the raw element index):
//
//   * Locality — each shard's sub-stream is feasible on its own (a user's
//     deletions follow their insertions within one shard), so a shard can
//     be replayed, checkpointed or re-ingested independently.
//   * Query routing — every user lives in exactly one known shard, so
//     both endpoints of any pair query (u, v) are found by two ShardOf
//     calls; no pair ever needs cross-shard state reconciliation beyond
//     reading two digests (see core/sharded_vos_sketch.h).
//
// Routing is a seeded multiplicative hash, not `u % S`: dense user ids
// would otherwise stripe pathologically (e.g. all even users on shard 0
// for S = 2 after a generator that interleaves). The router is
// deterministic in (seed, num_shards) — ingest and query sides construct
// equal routers from the same sketch config and always agree.

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "hashing/hash64.h"
#include "stream/element.h"

namespace vos::stream {

/// Stateless user → shard map, plus batch partition/tag helpers.
class ShardRouter {
 public:
  /// `num_shards` ≥ 1; `seed` selects the hash (ingest and query sides
  /// must agree on both).
  explicit ShardRouter(uint32_t num_shards, uint64_t seed = 0)
      : num_shards_(num_shards), seed_(seed) {
    VOS_CHECK(num_shards >= 1) << "need at least one shard";
    VOS_CHECK(num_shards <= 0xffff) << "shard ids are tagged as uint16";
  }

  uint32_t num_shards() const { return num_shards_; }
  uint64_t seed() const { return seed_; }

  /// hash(user) % num_shards — the shard owning all of `user`'s state.
  /// One Mix64 + one multiply; cheap enough for the per-element ingest
  /// path. One shard answers 0 without hashing (the reduction's answer
  /// too).
  uint32_t ShardOf(UserId user) const {
    if (num_shards_ == 1) return 0;
    return static_cast<uint32_t>(hash::ReduceToRange(
        hash::Mix64(user ^ (seed_ * 0x9e3779b97f4a7c15ULL)), num_shards_));
  }

  /// Writes ShardOf(elements[i].user) into tags[0..count). Tags let a
  /// batch be shared read-only across shard workers, each applying only
  /// its own elements (no per-shard copies of the batch).
  void Tag(const Element* elements, size_t count, uint16_t* tags) const;

  /// Appends each element to per_shard[ShardOf(user)]; per_shard must have
  /// num_shards() entries (existing content is kept, so callers can
  /// accumulate across batches). One shard appends the batch as-is.
  void Partition(const Element* elements, size_t count,
                 std::vector<std::vector<Element>>* per_shard) const;

  bool operator==(const ShardRouter& other) const {
    return num_shards_ == other.num_shards_ && seed_ == other.seed_;
  }

 private:
  uint32_t num_shards_;
  uint64_t seed_;
};

/// Dense user remap on top of a ShardRouter: global id → (shard, dense
/// local id), where a user's local id is its global-id rank among the
/// users routed to the same shard.
///
/// Why it exists: a sharded sketch that keeps per-user state (cardinality
/// counters, dirty epochs) in every shard pays ~8·S bytes/user when each
/// shard is sized for the full user universe. Rewriting elements to dense
/// local ids at routing time lets shard s size its state for exactly the
/// users it owns — Σ_s |shard s| = |U|, so the total is ~8 bytes/user
/// regardless of S (plus this map's own 8 bytes/user, counted by
/// MemoryBits()).
///
/// The map is built once at construction from (router, num_users) alone —
/// no stream-order dependence — so ingest pipelines (synchronous or
/// worker-threaded) and query planners always agree on the translation,
/// and shard state is deterministic for a given stream regardless of
/// batching. Immutable after construction; all accessors are const and
/// concurrent-safe.
class DenseShardMap {
 public:
  /// An empty map (num_users() == 0); Route degenerates to tagging.
  DenseShardMap() = default;

  /// Builds the rank-order remap for users 0..num_users over `router`.
  DenseShardMap(const ShardRouter& router, UserId num_users);

  uint32_t num_shards() const { return router_.num_shards(); }
  UserId num_users() const { return static_cast<UserId>(local_of_.size()); }

  uint32_t ShardOf(UserId user) const { return router_.ShardOf(user); }

  /// Dense local id of `user` within its shard. Always-on bounds check:
  /// `user` comes from external stream elements (or query arguments), so
  /// an out-of-range id must abort loudly rather than read past the
  /// table in Release — this closes the synchronous ingest and query
  /// paths the same way Route/Partition close the pipelined one.
  UserId LocalOf(UserId user) const {
    VOS_CHECK(user < local_of_.size())
        << "user" << user << "out of range (num_users " << local_of_.size()
        << ")";
    return local_of_[user];
  }

  /// Inverse map: the global id owning local id `local` of `shard`.
  UserId GlobalOf(uint32_t shard, UserId local) const {
    VOS_DCHECK(shard < globals_.size() && local < globals_[shard].size())
        << "slot (" << shard << "," << local << ") out of range";
    return globals_[shard][local];
  }

  /// Users routed to `shard` (the size of its dense id space).
  UserId shard_size(uint32_t shard) const {
    return static_cast<UserId>(globals_[shard].size());
  }

  /// The partitioning ingest handoff — the one ShardedVosSketch's
  /// pipeline uses: appends each element — rewritten to its dense local
  /// id — to per_shard[ShardOf(user)]. One pass yields S shard-owned
  /// sub-batches, each wholly in shard-local coordinates, so a
  /// multi-producer pipeline can hand every sub-batch to exactly its
  /// shard's queue (no consumer ever scans foreign elements). per_shard
  /// must have num_shards() entries; existing content is kept. Aborts
  /// (VOS_CHECK) on a user id outside [0, num_users()): the remap tables
  /// are sized at construction, so an out-of-range id is stream
  /// corruption, not a case to read past the table silently.
  void Partition(const Element* elements, size_t count,
                 std::vector<std::vector<Element>>* per_shard) const;

  /// In-place variant of the handoff for consumers that share one batch
  /// read-only (external shard replicas; the pre-PR-4 tagged pipeline):
  /// rewrites elements[i].user to its dense local id and writes the
  /// owning shard into tags[0..count). Same out-of-range abort as
  /// Partition.
  void Route(Element* elements, size_t count, uint16_t* tags) const;

  /// Bits held by the map itself (forward + inverse tables): 64·num_users.
  size_t MemoryBits() const {
    return (local_of_.size() + local_of_.size()) * sizeof(UserId) * 8;
  }

 private:
  ShardRouter router_{1, 0};
  /// local_of_[u] = dense local id of u within shard ShardOf(u).
  std::vector<UserId> local_of_;
  /// globals_[s][l] = global id of shard s's local id l.
  std::vector<std::vector<UserId>> globals_;
};

}  // namespace vos::stream
