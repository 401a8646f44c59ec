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
// Deviation from the paper (DESIGN.md §2): β is maintained as an exact
// integer 1-bit counter rather than the paper's floating-point running
// update, which is equivalent but exact.

#pragma once

#include <cstdint>
#include <vector>

#include <memory>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "hashing/hash64.h"
#include "hashing/seeds.h"
#include "hashing/tabulation.h"
#include "hashing/two_universal.h"
#include "stream/element.h"

namespace vos::core {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Which hash family implements ψ (item → virtual bit).
///
/// The odd-sketch analysis ([9], and §IV's P(O_uv[j] = 1) derivation)
/// assumes ψ is drawn from a 2-universal family; kMixer is the fast
/// default with empirically equivalent behaviour, kTwoUniversal gives the
/// provable guarantee (Carter–Wegman over 2^61−1), and kTabulation gives
/// 3-independence with Patrascu–Thorup's stronger-than-pairwise behaviour.
/// All three are deterministic in the sketch seed; accuracy is
/// indistinguishable in the test-suite sweeps.
enum class PsiKind : uint8_t {
  kMixer = 0,
  kTwoUniversal = 1,
  kTabulation = 2,
};

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
  /// Hash family for ψ (see PsiKind).
  PsiKind psi_kind = PsiKind::kMixer;
  /// Optional override for the f-family master seed (0 = derive from
  /// `seed` as usual). Sharded deployments (core/sharded_vos_sketch.h)
  /// give each shard its own f family while sharing `seed` — and hence ψ —
  /// so digests extracted from different shards remain XOR-comparable
  /// (common items still cancel) while the shards' cell maps stay
  /// independent.
  uint64_t f_seed = 0;
  /// Maintain the per-user dirty set (see dirty_users()). Costs one extra
  /// epoch load+compare per Update; turn off for sketches that will never
  /// be consumed incrementally (the harness does, so the Figure-2 update
  /// measurement stays at the paper's bare O(1) cost).
  bool track_dirty = true;
};

/// The VOS sketch: shared array + per-user cardinality counters.
class VosSketch {
 public:
  /// Creates an empty sketch for users 0..num_users.
  VosSketch(const VosConfig& config, UserId num_users);

  /// Processes one stream element in O(1): flips A[f_ψ(i)(u)] and adjusts
  /// n_u by ±1. Under VosConfig::track_dirty it also marks the user dirty
  /// (see dirty_users()) in O(1) amortized — one epoch compare, plus a
  /// push the first time a user is touched after a snapshot.
  void Update(const Element& e) {
    array_.Flip(CellOf(e.user, BucketOf(e.item)));
    if (e.action == Action::kInsert) {
      ++cardinality_[e.user];
    } else {
      VOS_DCHECK(cardinality_[e.user] > 0) << "deletion below zero" << e;
      --cardinality_[e.user];
    }
    MarkDirty(e.user);
  }

  /// ψ(item) ∈ [0, k) — which virtual bit of its user an item toggles.
  uint32_t BucketOf(ItemId item) const {
    switch (config_.psi_kind) {
      case PsiKind::kTwoUniversal:
        return static_cast<uint32_t>((*psi_two_universal_)(item));
      case PsiKind::kTabulation:
        return static_cast<uint32_t>(
            hash::ReduceToRange((*psi_tabulation_)(item), config_.k));
      case PsiKind::kMixer:
        break;
    }
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

  /// Per-user bookkeeping bits: cardinality counters plus (when tracked)
  /// dirty epochs. Excluded from MemoryBits() by the SimilarityMethod
  /// convention above, but counted by sharded facades — whether this
  /// state is allocated once per user or once per (user, shard) is real
  /// memory the facade is accountable for
  /// (see ShardedVosSketch::MemoryBits).
  size_t PerUserStateBits() const {
    return (cardinality_.size() + dirty_epoch_.size()) * sizeof(uint32_t) * 8;
  }

  /// Merges another shard's sketch into this one (distributed ingestion).
  ///
  /// If the stream is partitioned across shards — every element processed
  /// by exactly one shard — then XOR-ing the arrays and summing the
  /// cardinality counters yields exactly the sketch of the whole stream,
  /// because both are element-wise sums (mod 2 / over ℤ) of per-element
  /// contributions. Partition by *user* (e.g. hash(u) % shards) so each
  /// shard's sub-stream stays locally feasible; splitting one user across
  /// shards still merges correctly but trips the debug-build feasibility
  /// check on deletion-before-insertion shards. Both sketches must have
  /// identical configs (same k, m and seed ⇒ same ψ and f_j) and user
  /// counts; aborts otherwise.
  void MergeFrom(const VosSketch& other);

  /// True iff `other` was built with an identical configuration (and is
  /// therefore mergeable/comparable).
  bool IsCompatibleWith(const VosSketch& other) const {
    return config_.k == other.config_.k && config_.m == other.config_.m &&
           config_.seed == other.config_.seed &&
           config_.psi_kind == other.config_.psi_kind &&
           f_seed_ == other.f_seed_ &&
           cardinality_.size() == other.cardinality_.size();
  }

  // --- Dirty tracking (incremental index maintenance) -------------------
  //
  // The sketch records which users received updates since the last
  // ClearDirtyUsers(), so a snapshot consumer (SimilarityIndex) can
  // refresh only what may have changed instead of re-extracting every
  // candidate. Maintenance is O(1) amortized per Update: an epoch
  // compare, plus one push_back the first time a user is touched in the
  // current epoch.
  //
  // Contract: the dirty set covers *which users were updated* — because
  // array cells are shared, an update for user v can still flip a bit of
  // a clean user u's reconstructed digest. Incremental consumers must
  // therefore pair the dirty set with an array-delta check (see
  // SimilarityIndex::RefreshDirty); the dirty set alone is exact for
  // cardinality changes, which never appear in the array delta.
  //
  // Thread-safety: Update/MarkDirty follow the sketch's single-writer
  // model. ClearDirtyUsers is logically const (snapshot-consumer
  // bookkeeping over mutable members) and must not race with Update;
  // with multiple consumers of one sketch, only one may clear.

  /// True iff this sketch maintains the dirty set
  /// (VosConfig::track_dirty).
  bool tracks_dirty() const { return !dirty_epoch_.empty(); }

  /// Users touched by Update() since the last ClearDirtyUsers(),
  /// deduplicated, in first-touch order; MergeFrom additionally marks
  /// users whose merged cardinality changed (a merge CAN flip a user's
  /// array bits without a net cardinality change — such users are not
  /// listed here, by design: digest-level changes are only detectable
  /// via an array delta, which is exactly how RefreshDirty pairs with
  /// this set). Always empty when tracking is off.
  const std::vector<UserId>& dirty_users() const { return dirty_users_; }

  /// True iff `user` is in dirty_users().
  bool IsDirty(UserId user) const {
    return tracks_dirty() && dirty_epoch_[user] == dirty_current_epoch_;
  }

  /// Empties the dirty set (O(1): bumps the epoch). Called by snapshot
  /// consumers once they have captured the set.
  void ClearDirtyUsers() const;

 private:
  friend class VosSketchIo;  // serialization needs raw state access

  void MarkDirty(UserId user) const {
    if (dirty_epoch_.empty()) return;  // tracking off
    uint32_t& epoch = dirty_epoch_[user];
    if (epoch != dirty_current_epoch_) {
      epoch = dirty_current_epoch_;
      dirty_users_.push_back(user);
    }
  }

  VosConfig config_;
  uint64_t psi_seed_;
  uint64_t f_seed_;
  // Engaged per config_.psi_kind; shared_ptr so sketches stay copyable
  // (snapshots!) without duplicating the 16 KiB tabulation tables.
  std::shared_ptr<const hash::TwoUniversalHash> psi_two_universal_;
  std::shared_ptr<const hash::TabulationHash> psi_tabulation_;
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
  mutable std::vector<UserId> dirty_users_;
  mutable uint32_t dirty_current_epoch_ = 1;
};

}  // namespace vos::core
