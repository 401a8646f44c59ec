#include "core/query_planner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "common/popcount.h"
#include "core/pair_scan.h"
#include "core/scan_common.h"

namespace vos::core {
namespace {

// Result orders, worker pool and prefilter math are shared with
// SimilarityIndex (core/scan_common.h) — the planner is asserted
// bit-identical to the single-index path, so none of it may diverge.
using scan::EntryBefore;
using scan::PairBefore;

template <typename Work>
void RunTasks(unsigned threads, size_t num_tasks, const Work& work) {
  scan::RunIndexed(threads, num_tasks, work);
}

/// Raise-only publish of a shared lower bound (TopK's gathered k-th best
/// Ĵ). Relaxed ordering is enough: the bound is a monotone hint — any
/// stale read only prunes less.
void PublishBound(std::atomic<double>* bound, double candidate) {
  double current = bound->load(std::memory_order_relaxed);
  while (candidate > current &&
         !bound->compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

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
  RunTasks(ResolveThreadCount(query_options_.num_threads, num_shards),
           num_shards,
           [&](size_t s) { indexes_[s]->Rebuild(std::move(locals[s])); });
}

void QueryPlanner::Refresh() {
  VOS_CHECK(query_options_.incremental)
      << "Refresh needs QueryOptions::incremental";
  VOS_DCHECK(!sketch_->HasPendingIngest())
      << "Refresh on a non-quiesced pipeline; call Flush() first";
  const uint32_t num_shards = sketch_->num_shards();
  RunTasks(ResolveThreadCount(query_options_.num_threads, num_shards),
           num_shards, [&](size_t s) { indexes_[s]->RefreshDirty(); });
}

UserId QueryPlanner::GlobalOfRow(uint32_t s, size_t p) const {
  const SimilarityIndex& index = *indexes_[s];
  const UserId local = index.candidates()[index.sorted_to_candidate(p)];
  return sketch_->GlobalUserOf(s, local);
}

std::vector<optimizer::PassReport> QueryPlanner::PlanAllPairs(
    double jaccard_threshold) const {
  const bool prefilter =
      scan::PrefilterApplies(query_options_.prefilter,
                             estimator_.options().clamp_to_feasible,
                             jaccard_threshold);
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
  params.prefilter =
      scan::PrefilterApplies(query_options_.prefilter,
                             estimator_.options().clamp_to_feasible,
                             jaccard_threshold);
  params.estimator = &estimator_;
  params.log_alpha_table = &log_alpha_table_;

  std::vector<pair_scan::Pass> passes;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const SimilarityIndex& index = *indexes_[s];
    if (index.matrix().rows() < 2) continue;
    pair_scan::Pass pass;
    pass.a = pass.b = pair_scan::MatrixView{&index.matrix(),
                                            index.row_cardinalities().data()};
    pass.triangle = true;
    pass.log_beta_pair = index.log_beta_term();
    pass.emit = [this, s](size_t p, size_t q, const PairEstimate& est,
                          std::vector<Pair>& out) {
      const UserId gu = GlobalOfRow(s, p);
      const UserId gv = GlobalOfRow(s, q);
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
      pass.emit = [this, s, t](size_t p, size_t q, const PairEstimate& est,
                               std::vector<Pair>& out) {
        const UserId gu = GlobalOfRow(s, p);
        const UserId gv = GlobalOfRow(t, q);
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
  if (k == 0 || candidates_.empty()) return {};
  const uint32_t query_shard = sketch_->ShardOf(query);
  const UserId query_local = sketch_->LocalIdOf(query);
  const SimilarityIndex& query_index = *indexes_[query_shard];
  const size_t words = DigestMatrix::WordsPerRow(sketch_->config().base.k);

  // Query digest: snapshot row when the query is a candidate, live
  // extraction from its owning shard otherwise.
  std::vector<uint64_t> extracted;
  const uint64_t* query_row = nullptr;
  uint32_t query_card = 0;
  const size_t query_pos = query_index.RowIndexOf(query_local);
  if (query_pos != SimilarityIndex::npos) {
    query_row = query_index.matrix().Row(query_pos);
    query_card = query_index.row_cardinality(query_pos);
  } else {
    extracted.resize(words);
    DigestMatrix::ExtractRow(sketch_->shard(query_shard), query_local,
                             extracted.data());
    query_row = extracted.data();
    query_card = sketch_->shard(query_shard).Cardinality(query_local);
  }
  const double log_beta_query = query_index.log_beta_term();

  // Scatter: one task per shard index. Gather under a shared global
  // threshold bound: each task publishes its current k-th best Ĵ (a
  // lower bound on the final k-th best — the merged top-k can only be
  // better than any one task's) and prunes rows whose clamped Ĵ provably
  // falls below a published bound before popcounting. Strict-inequality
  // conservative ⇒ bit-identical to the unpruned scan for any schedule.
  const bool prune = estimator_.options().clamp_to_feasible;
  std::atomic<double> bound{-1.0};
  const uint32_t num_shards = sketch_->num_shards();
  std::vector<std::vector<Entry>> per_shard(num_shards);
  RunTasks(
      ResolveThreadCount(query_options_.num_threads, num_shards), num_shards,
      [&](size_t s) {
        const SimilarityIndex& index = *indexes_[s];
        const DigestMatrix& matrix = index.matrix();
        const size_t rows = matrix.rows();
        if (rows == 0) return;
        const double log_beta_pair =
            0.5 * (log_beta_query + index.log_beta_term());
        std::vector<Entry>& kept = per_shard[s];
        const size_t trim_at = std::max<size_t>(2 * k, 256);
        double local_bound = bound.load(std::memory_order_relaxed);
        const auto trim = [&] {
          if (kept.size() <= k) return;
          std::partial_sort(kept.begin(),
                            kept.begin() + static_cast<ptrdiff_t>(k),
                            kept.end(), EntryBefore);
          kept.resize(k);
          PublishBound(&bound, kept.back().jaccard);
          local_bound = bound.load(std::memory_order_relaxed);
        };
        for (size_t p = 0; p < rows; ++p) {
          const UserId global = GlobalOfRow(static_cast<uint32_t>(s), p);
          if (global == query) continue;
          const double card_v = index.row_cardinality(p);
          if (prune && local_bound > 0.0) {
            // Ĵ ≤ min/(sum−min) under clamping; prune when even that
            // ceiling is strictly below the bound (same slack regime as
            // the all-pairs prefilter).
            const double bound_frac = local_bound / (1.0 + local_bound);
            if (scan::CardinalityFail(std::min<double>(query_card, card_v),
                                      query_card + card_v, bound_frac)) {
              continue;
            }
          }
          const size_t d = XorPopcount(query_row, matrix.Row(p), words);
          const PairEstimate est = estimator_.EstimateFromLogTerms(
              query_card, card_v, log_alpha_table_[d], log_beta_pair);
          kept.push_back({global, est.common, est.jaccard});
          if (kept.size() >= trim_at) trim();
        }
        trim();
      });

  std::vector<Entry> entries;
  size_t total = 0;
  for (const auto& chunk : per_shard) total += chunk.size();
  entries.reserve(total);
  for (const auto& chunk : per_shard) {
    entries.insert(entries.end(), chunk.begin(), chunk.end());
  }
  const size_t take = std::min(k, entries.size());
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<ptrdiff_t>(take),
                    entries.end(), EntryBefore);
  entries.resize(take);
  return entries;
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
  std::sort(pairs.begin(), pairs.end(), PairBefore);
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
                    entries.end(), EntryBefore);
  entries.resize(take);
  return entries;
}

}  // namespace vos::core
