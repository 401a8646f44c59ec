#include "core/sharded_vos_method.h"

#include <algorithm>

#include "common/popcount.h"

namespace vos::core {

ShardedVosConfig ShardedVosMethod::WithQueryConfig(
    ShardedVosConfig config, const ShardedQueryConfig& query) {
  // Incremental per-shard indexes consume the shards' dirty sets.
  if (query.shards_local) config.base.track_dirty = true;
  return config;
}

ShardedVosMethod::ShardedVosMethod(const ShardedVosConfig& config,
                                   UserId num_users,
                                   VosEstimatorOptions options,
                                   ShardedQueryConfig query_config)
    : config_(WithQueryConfig(config, query_config)),
      query_config_(query_config),
      sketch_(config_, num_users, options),
      log_alpha_table_(sketch_.estimator().BuildLogAlphaTable()),
      cache_(config.num_shards),
      cached_beta_(config.num_shards, -1.0),
      cached_log_beta_term_(config.num_shards, 0.0),
      query_threads_(query_config.planner_threads) {}

Status ShardedVosMethod::Restore(const std::string& path) {
  VOS_RETURN_IF_ERROR(sketch_.Restore(path));
  // The restored shards are a different history than the one the
  // incremental planner snapshots and digest caches were built against —
  // drop them; the next PrepareQuery rebuilds from the restored state.
  planner_.reset();
  planner_candidates_.clear();
  planner_ready_ = false;
  InvalidateQueryCache();
  return Status::OK();
}

void ShardedVosMethod::PrepareQuery(const std::vector<UserId>& users) {
  if (!sketch_.Flush().ok()) {
    // Degraded pipeline: refuse to rebuild the cache over suspect state
    // and keep serving the last snapshot (graceful degradation — the
    // caller sees the failure from FlushIngest, queries keep answering).
    return;
  }
  if (query_config_.shards_local) {
    // Planner cache: first call (or a changed tracked set) snapshots
    // every shard index; repeat calls over the same set refresh
    // incrementally, draining each shard's dirty set shard-locally.
    if (planner_ == nullptr) {
      QueryOptions planner_options;
      planner_options.num_threads = query_threads_;
      planner_options.incremental = true;
      planner_options.tile_rows = query_config_.tile_rows;
      planner_ = std::make_unique<QueryPlanner>(
          sketch_, sketch_.estimator().options(), planner_options);
    } else {
      // Honour a SetQueryThreads issued after the planner was built.
      planner_->set_num_threads(query_threads_);
    }
    if (planner_candidates_ == users && planner_->candidate_count() > 0) {
      planner_->Refresh();
    } else {
      planner_candidates_ = users;
      planner_->Rebuild(users);
    }
    planner_ready_ = true;
    return;
  }
  const uint32_t shards = sketch_.num_shards();
  std::vector<std::vector<UserId>> per_shard_locals(shards);
  std::vector<std::vector<UserId>> per_shard_globals(shards);
  for (UserId user : users) {
    const uint32_t s = sketch_.ShardOf(user);
    per_shard_locals[s].push_back(sketch_.LocalIdOf(user));
    per_shard_globals[s].push_back(user);
  }
  cache_slots_.clear();
  cache_slots_.reserve(users.size());
  for (uint32_t s = 0; s < shards; ++s) {
    cache_[s] = DigestMatrix::Build(sketch_.shard(s), per_shard_locals[s],
                                    query_threads_);
    for (size_t row = 0; row < per_shard_globals[s].size(); ++row) {
      cache_slots_.emplace(per_shard_globals[s][row],
                           CacheSlot{s, static_cast<uint32_t>(row)});
    }
    cached_beta_[s] = sketch_.shard(s).beta();
    cached_log_beta_term_[s] =
        sketch_.estimator().LogBetaTerm(cached_beta_[s]);
  }
}

void ShardedVosMethod::InvalidateQueryCache() {
  cache_slots_.clear();
  for (DigestMatrix& matrix : cache_) matrix.Clear();
  std::fill(cached_beta_.begin(), cached_beta_.end(), -1.0);
  // The planner's incremental state is the point of the shards_local
  // mode — keep it, just stop serving estimates from it until the next
  // PrepareQuery re-validates the snapshot.
  planner_ready_ = false;
}

PairEstimate ShardedVosMethod::EstimateFromPlanner(UserId u, UserId v) const {
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

PairEstimate ShardedVosMethod::EstimatePair(UserId u, UserId v) const {
  if (planner_ready_ && planner_ != nullptr) {
    return EstimateFromPlanner(u, v);
  }
  const auto iu = cache_slots_.find(u);
  const auto iv = cache_slots_.find(v);
  if (iu != cache_slots_.end() && iv != cache_slots_.end()) {
    const CacheSlot& su = iu->second;
    const CacheSlot& sv = iv->second;
    const size_t d =
        XorPopcount(cache_[su.shard].Row(su.row), cache_[sv.shard].Row(sv.row),
                    cache_[su.shard].words_per_row());
    const VosEstimator& estimator = sketch_.estimator();
    // Memoized per-shard log-beta terms, revalidated against the live β
    // so estimates always reflect the current fill (as VosMethod does).
    const auto log_beta = [&](uint32_t shard) {
      const double beta = sketch_.shard(shard).beta();
      return beta == cached_beta_[shard] ? cached_log_beta_term_[shard]
                                         : estimator.LogBetaTerm(beta);
    };
    const double log_beta_term =
        0.5 * (log_beta(su.shard) + log_beta(sv.shard));
    return estimator.EstimateFromLogTerms(sketch_.Cardinality(u),
                                          sketch_.Cardinality(v),
                                          log_alpha_table_[d],
                                          log_beta_term);
  }
  return sketch_.EstimatePair(u, v);
}

}  // namespace vos::core
