#include "core/vos_sketch.h"

#include <algorithm>

namespace vos::core {

VosSketch::VosSketch(const VosConfig& config, UserId num_users)
    : config_(config),
      psi_seed_(hash::DeriveSeed(config.seed, 0x9a11)),
      f_seed_(config.f_seed != 0 ? config.f_seed
                                 : hash::DeriveSeed(config.seed, 0xf00d)),
      array_(config.m),
      cardinality_(num_users, 0) {
  VOS_CHECK(config.k >= 1) << "virtual sketch needs at least one bit";
  VOS_CHECK(config.m >= 1) << "shared array must be non-empty";
  {
    std::vector<uint64_t> seeds(config.k);
    for (uint32_t j = 0; j < config.k; ++j) {
      seeds[j] = hash::DeriveSeed(f_seed_, j);
    }
    f_seeds_ = std::make_shared<const std::vector<uint64_t>>(std::move(seeds));
  }
}

void VosSketch::StartDirtyTracking() const {
  if (tracks_dirty()) return;
  dirty_epoch_.assign(cardinality_.size(), 0);
  changed_words_.assign((array_.words().size() + 63) / 64, 0);
  dirty_users_.clear();
}

void VosSketch::ClearDirtyUsers() const {
  dirty_users_.clear();
  std::fill(changed_words_.begin(), changed_words_.end(), 0);
  if (++dirty_current_epoch_ == 0) {
    // uint32 epoch wrapped: reset the per-user epochs so stale entries
    // from 2^32 snapshots ago cannot alias the fresh epoch.
    std::fill(dirty_epoch_.begin(), dirty_epoch_.end(), 0u);
    dirty_current_epoch_ = 1;
  }
}

BitVector VosSketch::ExtractUserSketch(UserId user) const {
  BitVector sketch(config_.k);
  for (uint32_t j = 0; j < config_.k; ++j) {
    if (GetUserBit(user, j)) sketch.Flip(j);
  }
  return sketch;
}

}  // namespace vos::core
