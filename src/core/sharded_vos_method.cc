#include "core/sharded_vos_method.h"

#include "common/popcount.h"

namespace vos::core {
namespace {

/// The planner's incremental shard indexes consume the shards' dirty sets.
ShardedVosConfig WithDirtyTracking(ShardedVosConfig config) {
  config.base.track_dirty = true;
  return config;
}

}  // namespace

ShardedVosMethod::ShardedVosMethod(const ShardedVosConfig& config,
                                   UserId num_users,
                                   VosEstimatorOptions options,
                                   ShardedQueryConfig /*query_config*/)
    : sketch_(WithDirtyTracking(config), num_users, options),
      log_alpha_table_(sketch_.estimator().BuildLogAlphaTable()) {}

Status ShardedVosMethod::Restore(const std::string& path) {
  VOS_RETURN_IF_ERROR(sketch_.Restore(path));
  // The restored shards are a different history than the one the
  // incremental planner snapshots were built against — drop them; the
  // next PrepareQuery rebuilds from the restored state.
  planner_.reset();
  planner_candidates_.clear();
  planner_ready_ = false;
  return Status::OK();
}

void ShardedVosMethod::PrepareQuery(const std::vector<UserId>& users) {
  if (!sketch_.Flush().ok()) {
    // Degraded pipeline: refuse to re-snapshot suspect state and keep
    // serving the last snapshot (graceful degradation — the caller sees
    // the failure from FlushIngest, queries keep answering).
    return;
  }
  if (planner_ == nullptr) {
    QueryOptions planner_options;
    planner_options.num_threads = query_threads_;
    planner_options.incremental = true;
    planner_ = std::make_unique<QueryPlanner>(
        sketch_, sketch_.estimator().options(), planner_options);
  } else {
    // Honour a SetQueryThreads issued after the planner was built.
    planner_->set_num_threads(query_threads_);
  }
  // The same tracked set refreshes incrementally, draining each shard's
  // dirty set shard-locally; a new set snapshots every shard index.
  if (planner_candidates_ == users && planner_->candidate_count() > 0) {
    planner_->Refresh();
  } else {
    planner_candidates_ = users;
    planner_->Rebuild(users);
  }
  planner_ready_ = true;
}

PairEstimate ShardedVosMethod::EstimatePair(UserId u, UserId v) const {
  if (!planner_ready_) return sketch_.EstimatePair(u, v);
  const uint32_t su = sketch_.ShardOf(u);
  const uint32_t sv = sketch_.ShardOf(v);
  const SimilarityIndex& iu = planner_->shard_index(su);
  const SimilarityIndex& iv = planner_->shard_index(sv);
  const size_t pu = iu.RowIndexOf(sketch_.LocalIdOf(u));
  const size_t pv = iv.RowIndexOf(sketch_.LocalIdOf(v));
  if (pu == SimilarityIndex::npos || pv == SimilarityIndex::npos) {
    return sketch_.EstimatePair(u, v);
  }
  const size_t d = XorPopcount(iu.matrix().Row(pu), iv.matrix().Row(pv),
                               iu.matrix().words_per_row());
  const double log_beta_term =
      0.5 * (iu.log_beta_term() + iv.log_beta_term());
  return sketch_.estimator().EstimateFromLogTerms(
      iu.row_cardinality(pu), iv.row_cardinality(pv), log_alpha_table_[d],
      log_beta_term);
}

}  // namespace vos::core
