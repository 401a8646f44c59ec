#include "core/sharded_vos_method.h"

namespace vos::core {

ShardedVosMethod::ShardedVosMethod(const ShardedVosConfig& config,
                                   UserId num_users,
                                   VosEstimatorOptions options,
                                   ShardedQueryConfig /*query_config*/)
    : sketch_(config, num_users, options) {}

Status ShardedVosMethod::Restore(const std::string& path) {
  VOS_RETURN_IF_ERROR(sketch_.Restore(path));
  // The restored shards are a different history than the one the
  // planner snapshots were built against — drop them; the next
  // PrepareQuery rebuilds from the restored state.
  planner_.reset();
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
    planner_ = std::make_unique<QueryPlanner>(sketch_,
                                              sketch_.estimator().options());
  }
  // Honour a SetQueryThreads issued after the planner was built.
  planner_->set_num_threads(query_threads_);
  planner_->Prepare(users);
}

PairEstimate ShardedVosMethod::EstimatePair(UserId u, UserId v) const {
  return planner_ != nullptr ? planner_->EstimatePair(u, v)
                             : sketch_.EstimatePair(u, v);
}

}  // namespace vos::core
