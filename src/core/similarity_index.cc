#include "core/similarity_index.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/scan_common.h"

namespace vos::core {
namespace {

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
      query_options_(query_options) {}

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
  row_of_orig_.resize(n);
  cards_by_row_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const uint32_t i = sorted_rows_[p];
    row_of_orig_[i] = static_cast<uint32_t>(p);
    cards_by_row_[p] = cardinalities_[i];
  }
}

void SimilarityIndex::Rebuild(std::vector<UserId> candidates) {
  candidates_ = std::move(candidates);
  const size_t n = candidates_.size();
  candidate_of_.clear();
  candidate_of_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    candidate_of_.emplace(candidates_[i], i);  // first occurrence
  }
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
    VOS_CHECK(IncrementalFits(sketch_->config().m, sketch_->config().k, n))
        << "incremental index holds cells and candidates*k as uint32; m ="
        << sketch_->config().m << "candidates =" << n;
    // This index is the sketch's one incremental consumer: tracking
    // starts here (a no-op after the first Rebuild), and everything
    // before it is in the full snapshot below.
    sketch_->StartDirtyTracking();
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
  scan::RunIndexed(workers, workers, [&](size_t c) {
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
  scan::RunIndexed(workers, workers, [&](size_t c) {
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
  scan::RunIndexed(sort_workers, num_parts, [&](size_t p, unsigned w) {
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
  const std::vector<uint32_t> old_row_of_orig = std::move(row_of_orig_);
  SortRowsAndMaps();

  // The next snapshot starts as the old rows permuted into the new
  // cardinality order; the published matrix_ is never written. One
  // n·k/8-byte copy, on the calling thread.
  DigestMatrix next(k, n);
  const size_t row_bytes = next.words_per_row() * sizeof(uint64_t);
  for (size_t p = 0; p < n; ++p) {
    std::memcpy(next.MutableRow(p),
                matrix_.Row(old_row_of_orig[sorted_rows_[p]]), row_bytes);
  }

  // Digest bit j of candidate i is A[f_j(u_i)], so each changed array bit
  // flips exactly its owners' bits. Only the words the sketch's
  // changed-word summary flags can differ from the snapshot. Pass 1
  // compares those against the snapshot, re-syncs them and records each
  // changed word's XOR mask and inverse-index bucket; a cell flipped an
  // even number of times since the last snapshot flips nothing.
  const std::vector<uint64_t>& live_words = sketch_->array().words();
  const std::vector<uint64_t>& summary = sketch_->changed_words();
  refresh_words_.clear();
  for (size_t s = 0; s < summary.size(); ++s) {
    for (uint64_t bits = summary[s]; bits != 0; bits &= bits - 1) {
      const size_t w = (s << 6) + static_cast<size_t>(std::countr_zero(bits));
      const uint64_t mask = live_words[w] ^ snapshot_words_[w];
      if (mask == 0) continue;
      snapshot_words_[w] = live_words[w];
      refresh_words_.push_back(
          {mask, bucket_offsets_[w], bucket_offsets_[w + 1]});
    }
  }
  // Pass 2 tests each bucket entry against its owner's exact bit-in-word
  // (f_j(u_i) & 63, one hash) and flips the matching digest bits. The
  // buckets are scattered over the inverse index, so the walk prefetches
  // a few words ahead.
  constexpr size_t kPrefetchWords = 4;
  for (size_t c = 0; c < refresh_words_.size(); ++c) {
    if (c + kPrefetchWords < refresh_words_.size()) {
      __builtin_prefetch(
          bucket_entries_.data() + refresh_words_[c + kPrefetchWords].begin);
    }
    const ChangedWord& word = refresh_words_[c];
    for (uint32_t idx = word.begin; idx < word.end; ++idx) {
      const uint32_t flat = bucket_entries_[idx];
      const uint32_t i = flat / k;
      const uint32_t j = flat - i * k;
      if (((word.mask >> (sketch_->CellOf(candidates_[i], j) & 63)) & 1) ==
          0) {
        continue;
      }
      next.MutableRow(row_of_orig_[i])[j >> 6] ^= uint64_t{1} << (j & 63);
      affected[i] = 1;
    }
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

size_t SimilarityIndex::RowIndexOf(UserId user) const {
  const auto it = candidate_of_.find(user);
  return it == candidate_of_.end() ? npos : row_of_orig_[it->second];
}

std::vector<SimilarityIndex::Pair> SimilarityIndex::AllPairsAboveReference(
    double jaccard_threshold) const {
  const size_t n = matrix_.rows();
  std::vector<BitVector> digests;
  digests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    digests.push_back(matrix_.RowAsBitVector(row_of_orig_[i]));
  }
  const double k = sketch_->config().k;
  std::vector<Pair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double alpha =
          static_cast<double>(digests[i].HammingDistance(digests[j])) / k;
      const PairEstimate est = estimator_.Estimate(
          cardinalities_[i], cardinalities_[j], alpha, beta_);
      if (est.jaccard >= jaccard_threshold) {
        pairs.push_back({candidates_[i], candidates_[j], est.common,
                         est.jaccard});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), scan::PairBefore);
  return pairs;
}

}  // namespace vos::core
