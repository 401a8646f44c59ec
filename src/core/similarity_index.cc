#include "core/similarity_index.h"

#include <algorithm>
#include <cstring>

#include "core/pair_scan.h"
#include "core/scan_common.h"

namespace vos::core {
namespace {

// Result orders and the dynamic worker pool are shared with the planner
// (core/scan_common.h) — both paths must sort and schedule identically.
using scan::EntryBefore;
using scan::PairBefore;

template <typename Work>
void RunBlocks(unsigned threads, size_t num_blocks, const Work& work) {
  scan::RunIndexed(threads, num_blocks, work);
}

// The incremental Rebuild sorts its inverse-index entries by cell word in
// two levels: a coarse scatter into partitions of 2^16 cells (1,024 array
// words), then a counting sort by word inside each partition. The scatter
// keeps one live cursor per partition, and a partition's entries and word
// counters stay cache-resident while it is sorted.
constexpr uint32_t kPartitionWordsLog2 = 10;
constexpr uint32_t kPartitionCellsLog2 = kPartitionWordsLog2 + 6;
constexpr size_t kPartitionWords = size_t{1} << kPartitionWordsLog2;

}  // namespace

SimilarityIndex::SimilarityIndex(const VosSketch& sketch,
                                 VosEstimatorOptions options,
                                 QueryOptions query_options)
    : sketch_(&sketch),
      estimator_(sketch.config().k, options),
      query_options_(query_options),
      log_alpha_table_(estimator_.BuildLogAlphaTable()) {}

void SimilarityIndex::SortRowsAndMaps() {
  const size_t n = candidates_.size();
  sorted_rows_.resize(n);
  for (size_t i = 0; i < n; ++i) sorted_rows_[i] = static_cast<uint32_t>(i);
  std::sort(sorted_rows_.begin(), sorted_rows_.end(),
            [this](uint32_t a, uint32_t b) {
              return cardinalities_[a] != cardinalities_[b]
                         ? cardinalities_[a] < cardinalities_[b]
                         : a < b;
            });
  row_of_orig_.assign(n, 0);
  cards_by_row_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const uint32_t i = sorted_rows_[p];
    row_of_orig_[i] = static_cast<uint32_t>(p);
    cards_by_row_[p] = cardinalities_[i];
  }
  row_of_.clear();
  row_of_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    row_of_.emplace(candidates_[i], row_of_orig_[i]);  // first occurrence
  }
}

void SimilarityIndex::Rebuild(std::vector<UserId> candidates) {
  candidates_ = std::move(candidates);
  const size_t n = candidates_.size();
  cardinalities_.clear();
  cardinalities_.reserve(n);
  for (UserId u : candidates_) {
    cardinalities_.push_back(sketch_->Cardinality(u));
  }
  SortRowsAndMaps();
  if (!query_options_.incremental) {
    std::vector<UserId> ordered_users(n);
    for (size_t p = 0; p < n; ++p) {
      ordered_users[p] = candidates_[sorted_rows_[p]];
    }
    matrix_ = DigestMatrix::Build(*sketch_, ordered_users,
                                  query_options_.num_threads);
    snapshot_words_.clear();
    bucket_offsets_.clear();
    bucket_entries_.clear();
  } else {
    const uint64_t m = sketch_->config().m;
    const uint32_t k = sketch_->config().k;
    VOS_CHECK(sketch_->tracks_dirty())
        << "incremental index needs a sketch with VosConfig::track_dirty";
    VOS_CHECK(m <= uint64_t{0xffffffff})
        << "incremental index captures cells as uint32; m too large";
    VOS_CHECK(n * static_cast<size_t>(k) <= uint64_t{0xffffffff})
        << "incremental index entries are uint32; candidates*k too large";
    ExtractRowsAndInverseIndex();
    snapshot_words_ = sketch_->array().words();
    sketch_->ClearDirtyUsers();
    dirty_epoch_ = sketch_->dirty_epoch();
  }
  beta_ = sketch_->beta();
  log_beta_term_ = estimator_.LogBetaTerm(beta_);
  last_refresh_dirty_fraction_ = 1.0;
}

void SimilarityIndex::ExtractRowsAndInverseIndex() {
  // Counting-sorted inverse index, bucketed by cell *word* (so the
  // refresh scan jumps from a changed word straight to its owners). Each
  // entry is the flat digest-bit index i·k + j, so a changed cell names
  // exactly the bits it flips: bit j of candidate i. Every bucket lists
  // its entries in ascending flat order. Cells depend only on the user,
  // so the sort passes re-hash them (VosSketch::CellOf, no array read)
  // instead of storing n·k of them.
  const size_t n = candidates_.size();
  const uint32_t k = sketch_->config().k;
  const size_t num_words = (sketch_->config().m + 63) / 64;
  const size_t num_parts =
      (num_words + kPartitionWords - 1) >> kPartitionWordsLog2;
  const size_t total = n * static_cast<size_t>(k);
  matrix_ = DigestMatrix(k, n);

  // 1. Each worker extracts a contiguous candidate range straight into
  // its matrix rows and counts the range's cells per partition.
  const unsigned workers = ResolveThreadCount(query_options_.num_threads, n);
  const auto range_begin = [&](size_t c) { return c * n / workers; };
  // cursors[c·num_parts + p]: range c's count in partition p, then its
  // next write position there.
  std::vector<uint32_t> cursors(workers * num_parts, 0);
  RunBlocks(workers, workers, [&](size_t c) {
    uint32_t* counts = cursors.data() + c * num_parts;
    std::vector<uint32_t> cells(k);
    for (size_t i = range_begin(c); i < range_begin(c + 1); ++i) {
      DigestMatrix::ExtractRowFromArray(
          sketch_->array(), *sketch_, candidates_[i],
          matrix_.MutableRow(row_of_orig_[i]), cells.data());
      for (uint32_t j = 0; j < k; ++j) {
        ++counts[cells[j] >> kPartitionCellsLog2];
      }
    }
  });

  // 2. Coarse scatter. Prefix sums in (partition, range) order give every
  // range a disjoint slice of each partition, lower ranges first, so each
  // partition holds its entries in ascending flat order.
  std::vector<uint32_t> part_begin(num_parts + 1);
  uint32_t next = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    part_begin[p] = next;
    for (size_t c = 0; c < workers; ++c) {
      const uint32_t count = cursors[c * num_parts + p];
      cursors[c * num_parts + p] = next;
      next += count;
    }
  }
  part_begin[num_parts] = next;
  VOS_DCHECK(next == total) << "inverse index counted" << next << "of"
                            << total;
  bucket_entries_.resize(total);
  uint32_t* const entries = bucket_entries_.data();
  RunBlocks(workers, workers, [&](size_t c) {
    uint32_t* part_cursor = cursors.data() + c * num_parts;
    for (size_t i = range_begin(c); i < range_begin(c + 1); ++i) {
      const UserId user = candidates_[i];
      const uint32_t row_base = static_cast<uint32_t>(i * k);
      for (uint32_t j = 0; j < k; ++j) {
        const uint64_t cell = sketch_->CellOf(user, j);
        entries[part_cursor[cell >> kPartitionCellsLog2]++] = row_base + j;
      }
    }
  });

  // 3. Fine sort: each partition is one unit, counting-sorted by word in
  // its worker's scratch (bounded by one partition) and written back;
  // the stable sort keeps each word's entries ascending.
  bucket_offsets_.resize(num_words + 1);
  bucket_offsets_[num_words] = static_cast<uint32_t>(total);
  struct Scratch {
    std::vector<uint16_t> word;  // entry → word within its partition
    std::vector<uint32_t> sorted;
    std::vector<uint32_t> offsets = std::vector<uint32_t>(kPartitionWords + 1);
  };
  const unsigned sort_workers =
      ResolveThreadCount(query_options_.num_threads, num_parts);
  std::vector<Scratch> scratch(sort_workers);
  RunBlocks(sort_workers, num_parts, [&](size_t p, unsigned w) {
    Scratch& s = scratch[w];
    uint32_t* const part = entries + part_begin[p];
    const size_t count = part_begin[p + 1] - part_begin[p];
    const size_t first_word = p << kPartitionWordsLog2;
    const size_t words = std::min(kPartitionWords, num_words - first_word);
    if (s.word.size() < count) {
      s.word.resize(count);
      s.sorted.resize(count);
    }
    std::fill(s.offsets.begin(), s.offsets.begin() + words + 1, 0);
    for (size_t e = 0; e < count; ++e) {
      const uint32_t i = part[e] / k;
      const uint64_t cell = sketch_->CellOf(candidates_[i], part[e] - i * k);
      const auto word = static_cast<uint16_t>((cell >> 6) - first_word);
      s.word[e] = word;
      ++s.offsets[word + 1];
    }
    for (size_t x = 0; x < words; ++x) {
      s.offsets[x + 1] += s.offsets[x];
      bucket_offsets_[first_word + x] = part_begin[p] + s.offsets[x];
    }
    for (size_t e = 0; e < count; ++e) {
      s.sorted[s.offsets[s.word[e]]++] = part[e];
    }
    std::copy_n(s.sorted.data(), count, part);
  });
}

void SimilarityIndex::RefreshDirty() {
  VOS_CHECK(query_options_.incremental)
      << "RefreshDirty needs QueryOptions::incremental";
  VOS_CHECK(snapshot_words_.size() == sketch_->array().words().size())
      << "RefreshDirty before the first incremental Rebuild";
  VOS_CHECK(sketch_->dirty_epoch() == dirty_epoch_)
      << "RefreshDirty: another consumer cleared this sketch's dirty set "
         "since this index's last snapshot (a sketch allows one "
         "incremental index or planner); Rebuild instead";
  const size_t n = candidates_.size();
  const uint32_t k = sketch_->config().k;

  // Affected candidates = rows whose cardinality or digest changed.
  // Cardinality changes never show in the array delta, but every one is
  // a dirty user's.
  std::vector<uint8_t> affected(n, 0);
  if (!sketch_->dirty_users().empty()) {
    for (size_t i = 0; i < n; ++i) {
      if (!sketch_->IsDirty(candidates_[i])) continue;
      const uint32_t card = sketch_->Cardinality(candidates_[i]);
      if (card != cardinalities_[i]) {
        cardinalities_[i] = card;
        affected[i] = 1;
      }
    }
  }
  const std::vector<uint32_t> old_row_of_orig = row_of_orig_;
  SortRowsAndMaps();

  // The next snapshot starts as the old rows permuted into the new
  // cardinality order; the published matrix_ is never written.
  DigestMatrix next(k, n);
  const size_t words = next.words_per_row();
  const size_t block = 64;
  const size_t num_blocks = (n + block - 1) / block;
  RunBlocks(ResolveThreadCount(query_options_.num_threads, num_blocks),
            num_blocks, [&](size_t b) {
              const size_t end = std::min(n, (b + 1) * block);
              for (size_t p = b * block; p < end; ++p) {
                std::memcpy(next.MutableRow(p),
                            matrix_.Row(old_row_of_orig[sorted_rows_[p]]),
                            words * sizeof(uint64_t));
              }
            });

  // Digest bit j of candidate i is A[f_j(u_i)], so each changed array bit
  // flips exactly its owners' bits. Each changed word's XOR mask is
  // tested against the owner's exact bit-in-word (f_j(u_i) & 63, one
  // hash), then the snapshot word is re-synced: unchanged words cost one
  // compare, and a cell flipped an even number of times since the last
  // snapshot flips nothing.
  const std::vector<uint64_t>& live_words = sketch_->array().words();
  for (size_t w = 0; w < live_words.size(); ++w) {
    const uint64_t mask = live_words[w] ^ snapshot_words_[w];
    if (mask == 0) continue;
    for (size_t idx = bucket_offsets_[w]; idx < bucket_offsets_[w + 1];
         ++idx) {
      const uint32_t flat = bucket_entries_[idx];
      const uint32_t i = flat / k;
      const uint32_t j = flat - i * k;
      if (((mask >> (sketch_->CellOf(candidates_[i], j) & 63)) & 1) == 0) {
        continue;
      }
      next.MutableRow(row_of_orig_[i])[j >> 6] ^= uint64_t{1} << (j & 63);
      affected[i] = 1;
    }
    snapshot_words_[w] = live_words[w];
  }
  matrix_ = std::move(next);
  sketch_->ClearDirtyUsers();
  dirty_epoch_ = sketch_->dirty_epoch();
  beta_ = sketch_->beta();
  log_beta_term_ = estimator_.LogBetaTerm(beta_);
  size_t affected_count = 0;
  for (const uint8_t a : affected) affected_count += a;
  last_refresh_dirty_fraction_ =
      n == 0 ? 0.0
             : static_cast<double>(affected_count) / static_cast<double>(n);
}

size_t SimilarityIndex::RowOf(UserId user) const {
  const auto it = row_of_.find(user);
  return it == row_of_.end() ? kNpos : it->second;
}

PairEstimate SimilarityIndex::EstimateFromDigests(const BitVector& a,
                                                  uint32_t card_a,
                                                  const BitVector& b,
                                                  uint32_t card_b) const {
  const double alpha = static_cast<double>(a.HammingDistance(b)) /
                       sketch_->config().k;
  return estimator_.Estimate(card_a, card_b, alpha, beta_);
}

// ----------------------------------------------------------------- TopK

std::vector<SimilarityIndex::Entry> SimilarityIndex::TopK(UserId query,
                                                          size_t k) const {
  VOS_CHECK(query < sketch_->num_users())
      << "TopK query user" << query << "is not below num_users"
      << sketch_->num_users();
  if (candidates_.empty()) return {};
  const std::vector<pair_scan::TopKSide> side = {
      {pair_scan::MatrixView{&matrix_, cards_by_row_.data()}, log_beta_term_,
       [this](size_t p) { return candidates_[sorted_rows_[p]]; }}};
  const size_t row = RowOf(query);
  if (row != kNpos) {
    // Snapshot reuse: the query's digest and cardinality were captured at
    // Rebuild; no per-call re-extraction.
    return pair_scan::TopK({query, matrix_.Row(row), cards_by_row_[row]}, k,
                           side, estimator_, log_alpha_table_);
  }
  std::vector<uint64_t> query_row(matrix_.words_per_row());
  DigestMatrix::ExtractRow(*sketch_, query, query_row.data());
  return pair_scan::TopK({query, query_row.data(), sketch_->Cardinality(query)},
                         k, side, estimator_, log_alpha_table_);
}

std::vector<SimilarityIndex::Entry> SimilarityIndex::TopKReference(
    UserId query, size_t k) const {
  if (candidates_.empty()) return {};
  BitVector query_digest;
  uint32_t query_card = 0;
  const size_t row = RowOf(query);
  if (row != kNpos) {
    query_digest = matrix_.RowAsBitVector(row);
    query_card = cards_by_row_[row];
  } else {
    query_digest = sketch_->ExtractUserSketch(query);
    query_card = sketch_->Cardinality(query);
  }
  std::vector<Entry> entries;
  entries.reserve(candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i] == query) continue;
    const PairEstimate est = EstimateFromDigests(
        query_digest, query_card, matrix_.RowAsBitVector(row_of_orig_[i]),
        cardinalities_[i]);
    entries.push_back({candidates_[i], est.common, est.jaccard});
  }
  const size_t take = std::min(k, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + take, entries.end(),
                    EntryBefore);
  entries.resize(take);
  return entries;
}

// ----------------------------------------------------------- AllPairsAbove

std::vector<SimilarityIndex::Pair> SimilarityIndex::AllPairsAbove(
    double jaccard_threshold) const {
  if (matrix_.rows() < 2) return {};
  // One triangle pass on the shared tiled scan tier; the prefilter is
  // sound only where Ĵ is monotone in ŝ over the clamped feasible range,
  // so the gate resolves here (scan::PrefilterApplies) exactly as the
  // planner resolves it.
  pair_scan::ScanParams params;
  params.jaccard_threshold = jaccard_threshold;
  params.prefilter =
      scan::PrefilterApplies(query_options_.prefilter,
                             estimator_.options().clamp_to_feasible,
                             jaccard_threshold);
  params.estimator = &estimator_;
  params.log_alpha_table = &log_alpha_table_;

  pair_scan::Pass pass;
  pass.a = pass.b = pair_scan::MatrixView{&matrix_, cards_by_row_.data()};
  pass.triangle = true;
  pass.log_beta_pair = log_beta_term_;
  pass.emit = [this](size_t p, size_t q, const PairEstimate& est,
                     std::vector<Pair>& out) {
    // Canonical orientation: smaller candidate index first, as the
    // reference loop emits.
    const uint32_t oi = sorted_rows_[p];
    const uint32_t oj = sorted_rows_[q];
    const uint32_t u = std::min(oi, oj);
    const uint32_t v = std::max(oi, oj);
    out.push_back({candidates_[u], candidates_[v], est.common, est.jaccard});
  };

  return pair_scan::RunPasses({pass}, params, query_options_.tile_rows,
                              query_options_.num_threads);
}

std::vector<SimilarityIndex::Pair> SimilarityIndex::AllPairsAboveReference(
    double jaccard_threshold) const {
  const size_t n = matrix_.rows();
  std::vector<BitVector> digests;
  digests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    digests.push_back(matrix_.RowAsBitVector(row_of_orig_[i]));
  }
  std::vector<Pair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const PairEstimate est = EstimateFromDigests(
          digests[i], cardinalities_[i], digests[j], cardinalities_[j]);
      if (est.jaccard >= jaccard_threshold) {
        pairs.push_back({candidates_[i], candidates_[j], est.common,
                         est.jaccard});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), PairBefore);
  return pairs;
}

}  // namespace vos::core
