// VOS — Virtual Odd Sketch (the paper's contribution, §IV).
//
// One shared bit array A of m bits serves all users. User u's k-bit odd
// sketch is *virtual*: its bit j lives at cell f_j(u) of A, where f_1..f_k
// are independent user hashes. Processing element (u, i, a) flips the single
// bit A[f_ψ(i)(u)] — insertion and deletion are the same XOR — giving O(1)
// update time regardless of k. Because cells are shared across users, a
// reconstructed bit Ô_u[j] = A[f_j(u)] differs from the true odd-sketch bit
// with probability β (the fraction of 1-bits in A); the estimator
// (core/vos_estimator.h) removes this contamination in closed form.
//
// Deviation from the paper: β is maintained as an exact integer 1-bit
// counter rather than the paper's floating-point running update. The two
// agree flip for flip (VosSketchTest.PaperBetaUpdateRuleEquivalence), but
// the counter cannot drift with rounding.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "hashing/hash64.h"
#include "hashing/seeds.h"
#include "stream/element.h"

namespace vos::core {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Sizing and seeding of a VOS sketch.
struct VosConfig {
  /// k — bits in each user's virtual odd sketch. The paper sets this λ
  /// times the per-user bit budget of the baselines (λ = 2 in §V); see
  /// harness/memory_budget.h for the translation.
  uint32_t k = 6400;
  /// m — bits in the shared array A. Under the paper's equal-memory rule
  /// this is the whole budget: m = 32·k_base·|U| bits.
  uint64_t m = 1 << 22;
  /// Master seed; ψ and f_1..f_k are derived from it.
  uint64_t seed = 42;
  /// Optional override for the f-family master seed (0 = derive from
  /// `seed` as usual). Sharded deployments (core/sharded_vos_sketch.h)
  /// give each shard its own f family while sharing `seed` — and hence ψ —
  /// so digests extracted from different shards remain XOR-comparable
  /// (common items still cancel) while the shards' cell maps stay
  /// independent.
  uint64_t f_seed = 0;
  /// Ignored: dirty tracking starts when an incremental consumer starts
  /// it (VosSketch::StartDirtyTracking). Held for e2ebench, which still
  /// writes it, until its next change (ROADMAP item 3).
  bool track_dirty = false;
};

/// The VOS sketch: shared array + per-user cardinality counters.
class VosSketch {
 public:
  /// Creates an empty sketch for users 0..num_users.
  VosSketch(const VosConfig& config, UserId num_users);

  /// Processes one stream element in O(1): flips A[f_ψ(i)(u)] and adjusts
  /// n_u by ±1. Once dirty tracking has started (StartDirtyTracking) it
  /// also marks the user dirty (see IsDirty()) in O(1) — one epoch
  /// compare, plus a count the first time a user is touched after a
  /// snapshot — and flags the flipped cell's array word in
  /// changed_words().
  void Update(const Element& e) {
    const uint64_t cell = CellOf(e.user, BucketOf(e.item));
    array_.Flip(cell);
    if (e.action == Action::kInsert) {
      ++cardinality_[e.user];
    } else {
      VOS_DCHECK(cardinality_[e.user] > 0) << "deletion below zero" << e;
      --cardinality_[e.user];
    }
    MarkDirty(e.user, cell >> 6);
  }

  /// ψ(item) ∈ [0, k) — which virtual bit of its user an item toggles.
  /// A seeded 64-bit mixer reduced to [0, k): the odd-sketch analysis
  /// ([9], §IV) assumes a 2-universal ψ, and the mixer is its fast
  /// stand-in.
  uint32_t BucketOf(ItemId item) const {
    return static_cast<uint32_t>(
        hash::ReduceToRange(hash::Hash64(item, psi_seed_), config_.k));
  }

  /// f_j(user) ∈ [0, m) — the shared-array cell backing virtual bit j.
  ///
  /// The per-j sub-seed DeriveSeed(f_seed_, j) is precomputed once in the
  /// constructor (see f_seed_table()), so every CellOf costs a single
  /// Hash64 instead of two chained mixes — this is on the O(1) update path
  /// *and* the O(k) digest-extraction path.
  uint64_t CellOf(UserId user, uint32_t j) const {
    return hash::ReduceToRange(hash::Hash64(user, (*f_seeds_)[j]),
                               config_.m);
  }

  /// The cached per-j f-seeds: f_seed_table()[j] == DeriveSeed(f_seed, j).
  /// Batch extraction (core/digest_matrix.h) iterates this directly.
  const std::vector<uint64_t>& f_seed_table() const { return *f_seeds_; }

  /// Reconstructed bit Ô_u[j] = A[f_j(u)].
  bool GetUserBit(UserId user, uint32_t j) const {
    return array_.Get(CellOf(user, j));
  }

  /// Materializes the full reconstructed sketch Ô_u (k bits). O(k); used by
  /// the batch query path so pair estimates cost one Hamming distance.
  BitVector ExtractUserSketch(UserId user) const;

  /// β — exact fraction of 1-bits in A.
  double beta() const { return array_.FractionOnes(); }

  /// n_u — the user's current number of subscribed items.
  uint32_t Cardinality(UserId user) const { return cardinality_[user]; }

  /// The shared array (tests inspect it; production code should not).
  const BitVector& array() const { return array_; }

  const VosConfig& config() const { return config_; }
  UserId num_users() const {
    return static_cast<UserId>(cardinality_.size());
  }

  /// Sketch memory: the shared array. Cardinality counters are excluded —
  /// every compared method keeps the identical counters (see
  /// SimilarityMethod::MemoryBits).
  size_t MemoryBits() const { return array_.MemoryBits(); }

  /// Bookkeeping bits beyond the array: cardinality counters plus, once
  /// tracking has started, the dirty epochs and the changed-word summary.
  /// Excluded from MemoryBits() by the SimilarityMethod convention above,
  /// but counted by sharded facades — whether this state is allocated
  /// once per user or once per (user, shard) is real memory the facade is
  /// accountable for (see ShardedVosSketch::MemoryBits).
  size_t BookkeepingBits() const {
    return (cardinality_.size() + dirty_epoch_.size()) * sizeof(uint32_t) * 8 +
           changed_words_.size() * 64;
  }

  /// True iff `other` was built with an identical configuration (same k,
  /// m, ψ, f family and user count).
  bool IsCompatibleWith(const VosSketch& other) const {
    return config_.k == other.config_.k && config_.m == other.config_.m &&
           config_.seed == other.config_.seed && f_seed_ == other.f_seed_ &&
           cardinality_.size() == other.cardinality_.size();
  }

  // --- Dirty tracking (incremental index maintenance) -------------------
  //
  // The sketch records which users received updates since the last
  // ClearDirtyUsers(), so a snapshot builder (SimilarityIndex) refreshes
  // only what may have changed: O(1) per Update, an epoch compare plus one
  // count the first time a user is touched in the current epoch. Because
  // array cells are shared, an update for user v can still flip a bit of a
  // clean user u's digest, so the builder pairs the dirty set (exact for
  // cardinality changes) with the changed-word summary (changed_words()),
  // which flags every array word written since the last clear.
  //
  // Tracking is off until its consumer starts it: SimilarityIndex::Rebuild
  // calls StartDirtyTracking before its full snapshot, so a sketch nobody
  // refreshes incrementally (the Figure-2 update timing) pays one untaken
  // branch per Update and allocates nothing.
  //
  // Thread-safety: Update/MarkDirty follow the sketch's single-writer
  // model. StartDirtyTracking and ClearDirtyUsers are logically const
  // (consumer bookkeeping over mutable members) and must not race with
  // Update. A sketch has at most one incremental consumer: a second one
  // would clear users the first has not yet read. Consumers record
  // dirty_epoch() after they clear and check it before the next read
  // (SimilarityIndex::RefreshDirty aborts when it moved).

  /// True iff this sketch maintains the dirty set (StartDirtyTracking has
  /// run on it or on the sketch it was copied from).
  bool tracks_dirty() const { return !dirty_epoch_.empty(); }

  /// Starts maintaining the dirty set and the changed-word summary, both
  /// empty (a no-op when already tracking). Allocates one epoch per user
  /// and one summary bit per array word. Changes before this call are not
  /// recorded, so the caller snapshots the whole sketch after it.
  void StartDirtyTracking() const;

  /// Number of distinct users touched by Update() since the last
  /// ClearDirtyUsers() (or StartDirtyTracking()); 0 when tracking is off.
  size_t dirty_user_count() const { return dirty_user_count_; }

  /// The changed-word summary: bit w (word w >> 6, bit w & 63) is set iff
  /// array word w may have changed since the last ClearDirtyUsers() — set
  /// by Update for the word it flips. A flagged word may be back at its
  /// old value (a cell flipped twice); an unflagged word is unchanged.
  /// One bit per array word, no bit at or beyond array().words().size()
  /// is ever set; empty when tracking is off.
  const std::vector<uint64_t>& changed_words() const { return changed_words_; }

  /// True iff Update() touched `user` since the last ClearDirtyUsers().
  bool IsDirty(UserId user) const {
    return tracks_dirty() && dirty_epoch_[user] == dirty_current_epoch_;
  }

  /// Empties the dirty set (O(1): bumps the epoch) and zeroes the
  /// changed-word summary (m/64 bits). Called by snapshot consumers once
  /// they have captured both.
  void ClearDirtyUsers() const;

  /// Changes with every ClearDirtyUsers(): a consumer that reads the same
  /// value it recorded after its own clear knows nobody else cleared.
  uint32_t dirty_epoch() const { return dirty_current_epoch_; }

 private:
  friend class VosSketchIo;  // serialization needs raw state access

  /// Records an Update of `user` that flipped a cell in array word
  /// `word`. The one tracking-off branch guards both the summary bit and
  /// the dirty epoch, so an untracked Update pays a single early return.
  void MarkDirty(UserId user, uint64_t word) const {
    if (dirty_epoch_.empty()) return;  // tracking off
    changed_words_[word >> 6] |= uint64_t{1} << (word & 63);
    uint32_t& epoch = dirty_epoch_[user];
    if (epoch != dirty_current_epoch_) {
      epoch = dirty_current_epoch_;
      ++dirty_user_count_;
    }
  }

  VosConfig config_;
  uint64_t psi_seed_;
  uint64_t f_seed_;
  // Cached f_seeds_[j] = DeriveSeed(f_seed_, j); immutable after
  // construction and shared across snapshot copies (k entries, 8k bytes).
  std::shared_ptr<const std::vector<uint64_t>> f_seeds_;
  BitVector array_;
  std::vector<uint32_t> cardinality_;
  // Dirty-set state (see the contract above). dirty_epoch_[u] equals
  // dirty_current_epoch_ iff u is dirty; clearing bumps the epoch instead
  // of touching the per-user array. Mutable: the set is snapshot-consumer
  // bookkeeping, not sketch state — a cleared sketch is the same sketch.
  mutable std::vector<uint32_t> dirty_epoch_;
  mutable size_t dirty_user_count_ = 0;
  // The changed-word summary (see changed_words()): one bit per array
  // word, allocated by StartDirtyTracking. Mutable for the same reason.
  mutable std::vector<uint64_t> changed_words_;
  mutable uint32_t dirty_current_epoch_ = 1;
};

}  // namespace vos::core
