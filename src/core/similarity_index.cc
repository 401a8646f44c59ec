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

constexpr uint32_t kFlatMask =
    (uint32_t{1} << SimilarityIndex::kEntryOffsetShift) - 1;

// floor(flat / k) for flat < 2^26 with one multiply and one shift instead
// of a divide. With s = 26 + ceil(log2 k) and mul = floor(2^s / k) + 1,
// mul·k − 2^s ≤ k ≤ 2^(s−26), so the rounding error flat·(mul·k − 2^s)/
// (k·2^s) stays below 1/k and never crosses an integer; flat·mul < 2^54.
struct DivideByK {
  explicit DivideByK(uint32_t k)
      : shift(SimilarityIndex::kEntryOffsetShift +
              static_cast<uint32_t>(std::bit_width(k - 1))),
        mul((uint64_t{1} << shift) / k + 1) {}
  uint32_t operator()(uint32_t flat) const {
    return static_cast<uint32_t>((flat * mul) >> shift);
  }
  uint32_t shift;
  uint64_t mul;
};

// The row order: ascending cardinality (candidate-order `cards`), ties by
// candidate index.
auto RowBefore(const std::vector<uint32_t>& cards) {
  return [&cards](uint32_t a, uint32_t b) {
    return cards[a] != cards[b] ? cards[a] < cards[b] : a < b;
  };
}

}  // namespace

std::shared_ptr<Snapshot> Snapshot::Start(const VosSketch& sketch,
                                          std::vector<UserId> candidates,
                                          VosEstimatorOptions options,
                                          std::vector<uint32_t>& cards) {
  auto set = std::make_shared<CandidateSet>();
  set->users = std::move(candidates);
  const size_t n = set->users.size();
  set->index_of.reserve(n);
  cards.clear();
  cards.reserve(n);
  std::vector<uint32_t> sorted(n);
  for (size_t i = 0; i < n; ++i) {
    set->index_of.emplace(set->users[i], i);  // first occurrence
    cards.push_back(sketch.Cardinality(set->users[i]));
    sorted[i] = static_cast<uint32_t>(i);
  }
  std::sort(sorted.begin(), sorted.end(), RowBefore(cards));
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->candidates_ = std::move(set);
  snapshot->estimator_ = VosEstimator(sketch.config().k, options);
  snapshot->SetRowOrder(std::move(sorted), cards);
  snapshot->beta_ = sketch.beta();
  snapshot->log_beta_term_ = snapshot->estimator_.LogBetaTerm(snapshot->beta_);
  return snapshot;
}

std::shared_ptr<const Snapshot> Snapshot::Build(const VosSketch& sketch,
                                                std::vector<UserId> candidates,
                                                VosEstimatorOptions options,
                                                unsigned num_threads) {
  std::vector<uint32_t> cards;
  std::shared_ptr<Snapshot> snapshot =
      Start(sketch, std::move(candidates), options, cards);
  std::vector<UserId> ordered_users(cards.size());
  for (size_t p = 0; p < ordered_users.size(); ++p) {
    ordered_users[p] = snapshot->candidates()[snapshot->sorted_rows_[p]];
  }
  snapshot->matrix_ = DigestMatrix::Build(sketch, ordered_users, num_threads);
  return snapshot;
}

void Snapshot::SetRowOrder(std::vector<uint32_t> sorted_rows,
                           const std::vector<uint32_t>& cards) {
  const size_t n = sorted_rows.size();
  sorted_rows_ = std::move(sorted_rows);
  row_of_orig_.resize(n);
  cards_by_row_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const uint32_t i = sorted_rows_[p];
    row_of_orig_[i] = static_cast<uint32_t>(p);
    cards_by_row_[p] = cards[i];
  }
}

std::vector<uint32_t> SimilarityIndex::MergeMovedRows(
    std::vector<uint32_t> moved, const std::vector<uint8_t>& is_moved,
    Snapshot& next) const {
  // The rows that kept their cardinality keep their relative order, and
  // RowBefore is a strict total order, so merging them with the sorted
  // moved rows gives exactly the order a full sort would.
  const auto before = RowBefore(cardinalities_);
  std::sort(moved.begin(), moved.end(), before);
  const Snapshot& last = *last_;
  const size_t n = last.candidate_count();
  std::vector<uint32_t> sorted;
  std::vector<uint32_t> source;
  sorted.reserve(n);
  source.reserve(n);
  const auto take_moved = [&](uint32_t i) {
    sorted.push_back(i);
    source.push_back(last.row_of_orig_[i]);
  };
  size_t next_moved = 0;
  for (uint32_t q = 0; q < n; ++q) {
    const uint32_t i = last.sorted_rows_[q];
    if (is_moved[i] != 0) continue;
    for (; next_moved < moved.size() && before(moved[next_moved], i);
         ++next_moved) {
      take_moved(moved[next_moved]);
    }
    sorted.push_back(i);
    source.push_back(q);
  }
  for (; next_moved < moved.size(); ++next_moved) take_moved(moved[next_moved]);
  next.SetRowOrder(std::move(sorted), cardinalities_);
  return source;
}

std::shared_ptr<const Snapshot> SimilarityIndex::Rebuild(
    std::vector<UserId> candidates, unsigned num_threads) {
  VOS_CHECK(IncrementalFits(sketch_->config().m, sketch_->config().k,
                            candidates.size()))
      << "incremental index holds cells as uint32 and candidates*k in 26 "
         "bits; m ="
      << sketch_->config().m << "candidates =" << candidates.size();
  // This builder is the sketch's one incremental consumer: tracking
  // starts here (a no-op after the first Rebuild), and everything before
  // it is in the full snapshot below.
  sketch_->StartDirtyTracking();
  std::shared_ptr<Snapshot> snapshot =
      Snapshot::Start(*sketch_, std::move(candidates), options_,
                      cardinalities_);
  ExtractRowsAndInverseIndex(*snapshot, num_threads);
  snapshot_words_ = sketch_->array().words();
  sketch_->ClearDirtyUsers();
  dirty_epoch_ = sketch_->dirty_epoch();
  last_ = std::move(snapshot);
  return last_;
}

void SimilarityIndex::ExtractRowsAndInverseIndex(Snapshot& snapshot,
                                                 unsigned num_threads) {
  // Counting-sorted inverse index, bucketed by cell *word* (so the
  // refresh scan jumps from a changed word straight to its owners). Each
  // entry is the flat digest-bit index i·k + j tagged with its cell's
  // in-word bit offset, so a changed cell names exactly the bits it
  // flips: bit j of candidate i. Every bucket lists its entries in
  // ascending flat order. Cells depend only on the user, so the sort
  // passes re-hash them (VosSketch::CellOf, no array read) instead of
  // storing n·k of them.
  const std::vector<UserId>& candidates = snapshot.candidates();
  const size_t n = candidates.size();
  const uint32_t k = sketch_->config().k;
  const size_t num_words = (sketch_->config().m + 63) / 64;
  const size_t num_parts =
      (num_words + kPartitionWords - 1) >> kPartitionWordsLog2;
  const size_t total = n * static_cast<size_t>(k);
  snapshot.matrix_ = DigestMatrix(k, n);

  // 1. Each worker extracts a contiguous candidate range straight into
  // its matrix rows and counts the range's cells per partition.
  const unsigned workers = ResolveThreadCount(num_threads, n);
  const auto range_begin = [&](size_t c) { return c * n / workers; };
  // cursors[c·num_parts + p]: range c's count in partition p, then its
  // next write position there.
  std::vector<uint32_t> cursors(workers * num_parts, 0);
  scan::RunIndexed(workers, workers, [&](size_t c) {
    uint32_t* counts = cursors.data() + c * num_parts;
    std::vector<uint32_t> cells(k);
    for (size_t i = range_begin(c); i < range_begin(c + 1); ++i) {
      DigestMatrix::ExtractRow(
          *sketch_, candidates[i],
          snapshot.matrix_.MutableRow(snapshot.row_of_orig_[i]), cells.data());
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
      const UserId user = candidates[i];
      const uint32_t row_base = static_cast<uint32_t>(i * k);
      for (uint32_t j = 0; j < k; ++j) {
        const uint64_t cell = sketch_->CellOf(user, j);
        entries[part_cursor[cell >> kPartitionCellsLog2]++] =
            static_cast<uint32_t>(cell & 63) << kEntryOffsetShift |
            (row_base + j);
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
  const unsigned sort_workers = ResolveThreadCount(num_threads, num_parts);
  std::vector<Scratch> scratch(sort_workers);
  const DivideByK divide(k);
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
      const uint32_t flat = part[e] & kFlatMask;
      const uint32_t i = divide(flat);
      const uint64_t cell = sketch_->CellOf(candidates[i], flat - i * k);
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

std::shared_ptr<const Snapshot> SimilarityIndex::RefreshDirty() {
  VOS_CHECK(last_ != nullptr) << "RefreshDirty before the first Rebuild";
  VOS_CHECK(sketch_->dirty_epoch() == dirty_epoch_)
      << "RefreshDirty: another consumer cleared this sketch's dirty set "
         "since this builder's last snapshot (a sketch allows one "
         "incremental index or planner); Rebuild instead";
  const Snapshot& last = *last_;
  const std::vector<UserId>& candidates = last.candidates();
  const size_t n = candidates.size();
  const uint32_t k = sketch_->config().k;

  // Affected candidates = rows whose cardinality or digest changed.
  // Cardinality changes never show in the array delta, but every one is
  // a dirty user's; only those rows move in the sorted order.
  std::vector<uint8_t> affected(n, 0);
  std::vector<uint32_t> moved;
  if (sketch_->dirty_user_count() != 0) {
    for (size_t i = 0; i < n; ++i) {
      if (!sketch_->IsDirty(candidates[i])) continue;
      const uint32_t card = sketch_->Cardinality(candidates[i]);
      if (card != cardinalities_[i]) {
        cardinalities_[i] = card;
        affected[i] = 1;
        moved.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  auto next = std::make_shared<Snapshot>();
  next->candidates_ = last.candidates_;
  next->estimator_ = last.estimator_;
  const std::vector<uint32_t> source =
      MergeMovedRows(std::move(moved), affected, *next);

  // The next matrix starts as the old rows permuted into the new
  // cardinality order, uninitialized and written once; the last snapshot
  // is only read. Runs of rows that keep their neighbours (all of them
  // when no cardinality changed) go in one copy.
  DigestMatrix& matrix = next->matrix_;
  matrix = DigestMatrix(k, n);
  const size_t row_bytes = matrix.words_per_row() * sizeof(uint64_t);
  for (size_t p = 0; p < n;) {
    size_t run = 1;
    while (p + run < n && source[p + run] == source[p] + run) ++run;
    std::memcpy(matrix.MutableRow(p), last.matrix_.Row(source[p]),
                run * row_bytes);
    p += run;
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
  // Pass 2 tests each bucket entry's tag — its owner's exact bit-in-word
  // f_j(u_i) & 63 — against the mask with one shift, and splits the flat
  // index into (i, j) only for the owners of a changed bit. The buckets
  // are scattered over the inverse index, so the walk prefetches a few
  // words ahead.
  const DivideByK divide(k);
  const uint32_t* const row_of_orig = next->row_of_orig_.data();
  constexpr size_t kPrefetchWords = 4;
  for (size_t c = 0; c < refresh_words_.size(); ++c) {
    if (c + kPrefetchWords < refresh_words_.size()) {
      __builtin_prefetch(
          bucket_entries_.data() + refresh_words_[c + kPrefetchWords].begin);
    }
    const ChangedWord& word = refresh_words_[c];
    for (uint32_t idx = word.begin; idx < word.end; ++idx) {
      const uint32_t entry = bucket_entries_[idx];
      if (((word.mask >> (entry >> kEntryOffsetShift)) & 1) == 0) continue;
      const uint32_t flat = entry & kFlatMask;
      const uint32_t i = divide(flat);
      const uint32_t j = flat - i * k;
      matrix.MutableRow(row_of_orig[i])[j >> 6] ^= uint64_t{1} << (j & 63);
      affected[i] = 1;
    }
  }
  sketch_->ClearDirtyUsers();
  dirty_epoch_ = sketch_->dirty_epoch();
  next->beta_ = sketch_->beta();
  next->log_beta_term_ = next->estimator_.LogBetaTerm(next->beta_);
  size_t affected_count = 0;
  for (const uint8_t a : affected) affected_count += a;
  next->last_refresh_dirty_fraction_ =
      n == 0 ? 0.0
             : static_cast<double>(affected_count) / static_cast<double>(n);
  last_ = std::move(next);
  return last_;
}

size_t Snapshot::RowIndexOf(UserId user) const {
  const auto it = candidates_->index_of.find(user);
  return it == candidates_->index_of.end() ? npos : row_of_orig_[it->second];
}

std::vector<Snapshot::Pair> Snapshot::AllPairsAboveReference(
    double jaccard_threshold) const {
  const size_t n = matrix_.rows();
  std::vector<BitVector> digests;
  digests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    digests.push_back(matrix_.RowAsBitVector(row_of_orig_[i]));
  }
  const double k = estimator_.k();
  const std::vector<UserId>& candidates = candidates_->users;
  std::vector<Pair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double alpha =
          static_cast<double>(digests[i].HammingDistance(digests[j])) / k;
      const PairEstimate est =
          estimator_.Estimate(cards_by_row_[row_of_orig_[i]],
                              cards_by_row_[row_of_orig_[j]], alpha, beta_);
      if (est.jaccard >= jaccard_threshold) {
        pairs.push_back({candidates[i], candidates[j], est.common,
                         est.jaccard});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), scan::PairBefore);
  return pairs;
}

}  // namespace vos::core
