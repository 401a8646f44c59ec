#include "stream/shard_router.h"

#include <algorithm>

#include "common/kernels.h"

namespace vos::stream {
namespace {

/// Chunk size for the SoA staging buffers below: big enough to amortize
/// the kernel dispatch and fill the SIMD lanes, small enough to stay on
/// the stack and L1-resident.
constexpr size_t kRouteChunk = 256;

/// seed → the pre-mixed constant ShardOf folds into every user hash.
constexpr uint64_t RouteSeedMix(uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ULL;
}

}  // namespace

void ShardRouter::Tag(const Element* elements, size_t count,
                      uint16_t* tags) const {
  // Stage users out of the AoS elements so the routing kernel sees a
  // dense lane-loadable array; shard tags land directly in `tags`.
  const uint64_t seed_mix = RouteSeedMix(seed_);
  const kernels::KernelTable& kernel = kernels::Active();
  uint32_t users[kRouteChunk];
  for (size_t base = 0; base < count; base += kRouteChunk) {
    const size_t len = std::min(kRouteChunk, count - base);
    for (size_t i = 0; i < len; ++i) users[i] = elements[base + i].user;
    kernel.route_batch(users, len, seed_mix, num_shards_, nullptr, tags + base,
                       nullptr);
  }
}

void ShardRouter::Partition(const Element* elements, size_t count,
                            std::vector<std::vector<Element>>* per_shard) const {
  VOS_CHECK(per_shard->size() == num_shards_)
      << "per_shard must have one bucket per shard";
  if (num_shards_ == 1) {
    (*per_shard)[0].insert((*per_shard)[0].end(), elements, elements + count);
    return;
  }
  // Hash routing spreads a batch near-uniformly; reserving the expected
  // bucket size plus slack absorbs almost all growth without a second
  // counting pass over the batch (this is the ingest hot path).
  const size_t expected = count / num_shards_ + count / (4 * num_shards_) + 8;
  for (auto& bucket : *per_shard) {
    bucket.reserve(bucket.size() + expected);
  }
  const uint64_t seed_mix = RouteSeedMix(seed_);
  const kernels::KernelTable& kernel = kernels::Active();
  uint32_t users[kRouteChunk];
  uint16_t shards[kRouteChunk];
  for (size_t base = 0; base < count; base += kRouteChunk) {
    const size_t len = std::min(kRouteChunk, count - base);
    for (size_t i = 0; i < len; ++i) users[i] = elements[base + i].user;
    kernel.route_batch(users, len, seed_mix, num_shards_, nullptr, shards,
                       nullptr);
    for (size_t i = 0; i < len; ++i) {
      (*per_shard)[shards[i]].push_back(elements[base + i]);
    }
  }
}

DenseShardMap::DenseShardMap(const ShardRouter& router, UserId num_users)
    : router_(router),
      local_of_(num_users),
      globals_(router.num_shards()) {
  // Rank-order assignment: walking global ids in order hands each shard
  // its users in increasing global id, so local ids are dense and the
  // inverse table is built in the same pass.
  for (UserId u = 0; u < num_users; ++u) {
    std::vector<UserId>& members = globals_[router_.ShardOf(u)];
    local_of_[u] = static_cast<UserId>(members.size());
    members.push_back(u);
  }
}

void DenseShardMap::Route(Element* elements, size_t count,
                          uint16_t* tags) const {
  const uint64_t seed_mix = RouteSeedMix(router_.seed());
  const kernels::KernelTable& kernel = kernels::Active();
  uint32_t users[kRouteChunk];
  uint32_t locals[kRouteChunk];
  for (size_t base = 0; base < count; base += kRouteChunk) {
    const size_t len = std::min(kRouteChunk, count - base);
    for (size_t i = 0; i < len; ++i) {
      const UserId user = elements[base + i].user;
      // Always-on, and necessarily BEFORE the kernel call: the kernel
      // gathers local_of_[user] unchecked, and a release build reading
      // it out of bounds would route the element to a garbage
      // (shard, local id) — fail loudly instead.
      VOS_CHECK(user < local_of_.size())
          << "user" << user << "out of range (num_users "
          << local_of_.size() << ")";
      users[i] = user;
    }
    kernel.route_batch(users, len, seed_mix, router_.num_shards(),
                       local_of_.data(), tags + base, locals);
    for (size_t i = 0; i < len; ++i) elements[base + i].user = locals[i];
  }
}

void DenseShardMap::Partition(const Element* elements, size_t count,
                              std::vector<std::vector<Element>>* per_shard)
    const {
  VOS_CHECK(per_shard->size() == router_.num_shards())
      << "per_shard must have one bucket per shard";
  // Expected-size reservation with slack, as in ShardRouter::Partition.
  const size_t shards = router_.num_shards();
  const size_t expected = count / shards + count / (4 * shards) + 8;
  for (auto& bucket : *per_shard) {
    bucket.reserve(bucket.size() + expected);
  }
  const uint64_t seed_mix = RouteSeedMix(router_.seed());
  const kernels::KernelTable& kernel = kernels::Active();
  uint32_t users[kRouteChunk];
  uint16_t shard_buf[kRouteChunk];
  uint32_t locals[kRouteChunk];
  for (size_t base = 0; base < count; base += kRouteChunk) {
    const size_t len = std::min(kRouteChunk, count - base);
    for (size_t i = 0; i < len; ++i) {
      const UserId user = elements[base + i].user;
      // Same out-of-range abort as Route, before the unchecked gather.
      VOS_CHECK(user < local_of_.size())
          << "user" << user << "out of range (num_users "
          << local_of_.size() << ")";
      users[i] = user;
    }
    kernel.route_batch(users, len, seed_mix, shards, local_of_.data(),
                       shard_buf, locals);
    for (size_t i = 0; i < len; ++i) {
      Element local = elements[base + i];
      local.user = locals[i];
      (*per_shard)[shard_buf[i]].push_back(local);
    }
  }
}

}  // namespace vos::stream
