#include "core/query_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/pair_scan.h"
#include "core/scan_common.h"

namespace vos::core {

QueryPlanner::QueryPlanner(const ShardedVosSketch& sketch,
                           VosEstimatorOptions estimator_options,
                           QueryOptions query_options)
    : sketch_(&sketch),
      estimator_(sketch.config().base.k, estimator_options),
      query_options_(query_options),
      log_alpha_table_(estimator_.BuildLogAlphaTable()) {
  // One index per shard, bound to the shard's VosSketch (local id
  // space), with its share of the planner's workers (IndexThreads).
  QueryOptions per_index = query_options_;
  per_index.num_threads = IndexThreads();
  indexes_.reserve(sketch.num_shards());
  for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
    indexes_.push_back(std::make_unique<SimilarityIndex>(
        sketch.shard(s), estimator_options, per_index));
  }
}

unsigned QueryPlanner::IndexThreads() const {
  // Rebuild/Refresh run min(T, S) shard tasks at a time, so ⌊T/S⌋
  // workers inside each never exceed T threads in total.
  const unsigned total = ResolveThreadCount(query_options_.num_threads,
                                            std::numeric_limits<size_t>::max());
  return std::max(1u, total / sketch_->num_shards());
}

void QueryPlanner::set_num_threads(unsigned num_threads) {
  query_options_.num_threads = num_threads;
  for (const std::unique_ptr<SimilarityIndex>& index : indexes_) {
    QueryOptions options = index->query_options();
    options.num_threads = IndexThreads();
    index->set_query_options(options);
  }
}

void QueryPlanner::Rebuild(std::vector<UserId> candidates) {
  VOS_DCHECK(!sketch_->HasPendingIngest())
      << "Rebuild on a non-quiesced pipeline; call Flush() first";
  candidates_ = std::move(candidates);
  const uint32_t num_shards = sketch_->num_shards();
  std::vector<std::vector<UserId>> locals(num_shards);
  for (const UserId user : candidates_) {
    locals[sketch_->ShardOf(user)].push_back(sketch_->LocalIdOf(user));
  }
  scan::RunIndexed(ResolveThreadCount(query_options_.num_threads, num_shards),
           num_shards,
           [&](size_t s) { indexes_[s]->Rebuild(std::move(locals[s])); });
}

void QueryPlanner::Refresh() {
  VOS_CHECK(query_options_.incremental)
      << "Refresh needs QueryOptions::incremental";
  VOS_DCHECK(!sketch_->HasPendingIngest())
      << "Refresh on a non-quiesced pipeline; call Flush() first";
  const uint32_t num_shards = sketch_->num_shards();
  scan::RunIndexed(ResolveThreadCount(query_options_.num_threads, num_shards),
           num_shards, [&](size_t s) { indexes_[s]->RefreshDirty(); });
}

UserId QueryPlanner::GlobalOfRow(uint32_t s, size_t p) const {
  const SimilarityIndex& index = *indexes_[s];
  const UserId local = index.candidates()[index.sorted_to_candidate(p)];
  return sketch_->GlobalUserOf(s, local);
}

std::vector<optimizer::PassReport> QueryPlanner::PlanAllPairs(
    double jaccard_threshold) const {
  const bool prefilter = scan::PrefilterApplies(
      estimator_.options().clamp_to_feasible, jaccard_threshold);
  std::vector<optimizer::PassReport> reports;
  const auto report = [&](size_t exact_pairs) {
    optimizer::PassReport r;
    r.stats.exact_pairs = exact_pairs;
    reports.push_back(r);
  };
  const uint32_t num_shards = sketch_->num_shards();
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<uint32_t>& cards = indexes_[s]->row_cardinalities();
    if (cards.size() < 2) continue;
    report(optimizer::TriangleWindowPairs(cards.data(), cards.size(),
                                          jaccard_threshold, prefilter));
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<uint32_t>& cards_a = indexes_[s]->row_cardinalities();
    if (cards_a.empty()) continue;
    for (uint32_t t = s + 1; t < num_shards; ++t) {
      const std::vector<uint32_t>& cards_b = indexes_[t]->row_cardinalities();
      if (cards_b.empty()) continue;
      report(optimizer::RectangleWindowPairs(
          cards_a.data(), cards_a.size(), cards_b.data(), cards_b.size(),
          jaccard_threshold, prefilter));
    }
  }
  return reports;
}

std::vector<QueryPlanner::Pair> QueryPlanner::AllPairsAbove(
    double jaccard_threshold) const {
  const uint32_t num_shards = sketch_->num_shards();
  // Describe the whole pair space as pair_scan passes: one triangle per
  // shard plus one rectangle per shard pair. The tier decomposes every
  // pass into tiles and dispatches them to ONE pool, so a hot shard's
  // triangle runs as many units instead of one serialized task, and
  // returns the pairs already in PairBefore order.
  pair_scan::ScanParams params;
  params.jaccard_threshold = jaccard_threshold;
  params.prefilter = scan::PrefilterApplies(
      estimator_.options().clamp_to_feasible, jaccard_threshold);
  params.estimator = &estimator_;
  params.log_alpha_table = &log_alpha_table_;

  // Row → global id per shard, filled once so each emitted pair reads
  // two array slots instead of two GlobalOfRow lookups.
  std::vector<std::vector<UserId>> global_of_row(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    global_of_row[s].resize(indexes_[s]->matrix().rows());
    for (size_t p = 0; p < global_of_row[s].size(); ++p) {
      global_of_row[s][p] = GlobalOfRow(s, p);
    }
  }

  std::vector<pair_scan::Pass> passes;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const SimilarityIndex& index = *indexes_[s];
    if (index.matrix().rows() < 2) continue;
    pair_scan::Pass pass;
    pass.a = pass.b = pair_scan::MatrixView{&index.matrix(),
                                            index.row_cardinalities().data()};
    pass.triangle = true;
    pass.log_beta_pair = index.log_beta_term();
    pass.emit = [ids = global_of_row[s].data()](
                    size_t p, size_t q, const PairEstimate& est,
                    std::vector<Pair>& out) {
      const UserId gu = ids[p];
      const UserId gv = ids[q];
      out.push_back({std::min(gu, gv), std::max(gu, gv), est.common,
                     est.jaccard});
    };
    passes.push_back(std::move(pass));
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    const SimilarityIndex& ia = *indexes_[s];
    if (ia.matrix().rows() == 0) continue;
    for (uint32_t t = s + 1; t < num_shards; ++t) {
      const SimilarityIndex& ib = *indexes_[t];
      if (ib.matrix().rows() == 0) continue;
      pair_scan::Pass pass;
      pass.a = pair_scan::MatrixView{&ia.matrix(),
                                     ia.row_cardinalities().data()};
      pass.b = pair_scan::MatrixView{&ib.matrix(),
                                     ib.row_cardinalities().data()};
      pass.triangle = false;
      // Cross-shard β correction: each digest carries its own shard's
      // contamination, so the estimator takes the mean of the two
      // log-beta terms — identical to ShardedVosSketch::EstimatePair.
      pass.log_beta_pair = 0.5 * (ia.log_beta_term() + ib.log_beta_term());
      pass.emit = [ids_a = global_of_row[s].data(),
                   ids_b = global_of_row[t].data()](
                      size_t p, size_t q, const PairEstimate& est,
                      std::vector<Pair>& out) {
        const UserId gu = ids_a[p];
        const UserId gv = ids_b[q];
        out.push_back({std::min(gu, gv), std::max(gu, gv), est.common,
                       est.jaccard});
      };
      passes.push_back(std::move(pass));
    }
  }
  return pair_scan::RunPasses(passes, params, query_options_.tile_rows,
                              query_options_.num_threads);
}

std::vector<QueryPlanner::Entry> QueryPlanner::TopK(UserId query,
                                                    size_t k) const {
  VOS_CHECK(query < sketch_->num_users())
      << "TopK query user" << query << "is not below num_users"
      << sketch_->num_users();
  if (k == 0 || candidates_.empty()) return {};
  const uint32_t query_shard = sketch_->ShardOf(query);
  const UserId query_local = sketch_->LocalIdOf(query);
  const SimilarityIndex& query_index = *indexes_[query_shard];

  // Query digest: snapshot row when the query is a candidate, live
  // extraction from its owning shard otherwise.
  std::vector<uint64_t> extracted;
  pair_scan::TopKQuery q;
  q.user = query;
  const size_t query_pos = query_index.RowIndexOf(query_local);
  if (query_pos != SimilarityIndex::npos) {
    q.row = query_index.matrix().Row(query_pos);
    q.card = query_index.row_cardinality(query_pos);
  } else {
    extracted.resize(DigestMatrix::WordsPerRow(sketch_->config().base.k));
    DigestMatrix::ExtractRow(sketch_->shard(query_shard), query_local,
                             extracted.data());
    q.row = extracted.data();
    q.card = sketch_->shard(query_shard).Cardinality(query_local);
  }

  // One side per shard index, scanned in shard order on this thread
  // against one running k-th best (pair_scan::TopK).
  std::vector<pair_scan::TopKSide> sides;
  sides.reserve(indexes_.size());
  for (uint32_t s = 0; s < indexes_.size(); ++s) {
    const SimilarityIndex& index = *indexes_[s];
    if (index.matrix().rows() == 0) continue;
    sides.push_back(
        {pair_scan::MatrixView{&index.matrix(),
                               index.row_cardinalities().data()},
         0.5 * (query_index.log_beta_term() + index.log_beta_term()),
         [this, s](size_t p) { return GlobalOfRow(s, p); }});
  }
  return pair_scan::TopK(q, k, sides, estimator_, log_alpha_table_);
}

std::vector<QueryPlanner::Pair> QueryPlanner::AllPairsAboveReference(
    double jaccard_threshold) const {
  std::vector<Pair> pairs;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    for (size_t j = i + 1; j < candidates_.size(); ++j) {
      const PairEstimate est =
          sketch_->EstimatePair(candidates_[i], candidates_[j]);
      if (est.jaccard >= jaccard_threshold) {
        const UserId u = std::min(candidates_[i], candidates_[j]);
        const UserId v = std::max(candidates_[i], candidates_[j]);
        pairs.push_back({u, v, est.common, est.jaccard});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), scan::PairBefore);
  return pairs;
}

std::vector<QueryPlanner::Entry> QueryPlanner::TopKReference(
    UserId query, size_t k) const {
  std::vector<Entry> entries;
  entries.reserve(candidates_.size());
  for (const UserId candidate : candidates_) {
    if (candidate == query) continue;
    const PairEstimate est = sketch_->EstimatePair(query, candidate);
    entries.push_back({candidate, est.common, est.jaccard});
  }
  const size_t take = std::min(k, entries.size());
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<ptrdiff_t>(take),
                    entries.end(), scan::EntryBefore);
  entries.resize(take);
  return entries;
}

}  // namespace vos::core
