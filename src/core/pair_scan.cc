#include "core/pair_scan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/popcount.h"
#include "core/query_optimizer.h"

namespace vos::core::pair_scan {
namespace {

using scan::Pair;

/// One unit of RunPasses work: a tile of a pass.
struct ScanUnit {
  size_t pass = 0;
  size_t a_begin = 0, a_end = 0;
  size_t b_begin = 0, b_end = 0;
};

/// Results of at most this many pairs are ordered by one std::sort (about
/// 0.2 ms at this size); larger ones take the bucketed order, whose
/// scatter and two extra pool passes only pay off above it.
constexpr size_t kSerialSortPairs = 2048;

/// Ĵ buckets of the bucketed result order. Bucket 0 holds Ĵ > 1, buckets
/// 1 .. count()−2 split [max(τ, 0), 1] into equal ranges of an
/// order-preserving integer key of Ĵ (so finer in Ĵ toward τ, where most
/// pairs are), and the last bucket holds Ĵ below that range. A higher Ĵ
/// never lands in a later bucket, so sorting each bucket with PairBefore
/// orders the whole result; the end buckets keep unclamped estimates and
/// τ ≤ 0 correct.
class JaccardBuckets {
 public:
  explicit JaccardBuckets(double tau)
      : key_hi_(Key(1.0)),
        key_lo_(Key(tau > 0.0 ? std::min(tau, 1.0) : 0.0)) {
    while (((key_hi_ - key_lo_) >> shift_) >= kRangeBuckets) ++shift_;
    count_ = ((key_hi_ - key_lo_) >> shift_) + 3;
  }

  size_t count() const { return count_; }

  size_t operator()(double jaccard) const {
    const uint64_t key = Key(jaccard);
    if (key > key_hi_) return 0;
    if (key < key_lo_) return count_ - 1;
    return 1 + static_cast<size_t>((key_hi_ - key) >> shift_);
  }

 private:
  static constexpr uint64_t kRangeBuckets = 4096;

  /// Monotone map of non-NaN doubles onto uint64 (a < b ⟹ Key(a) <
  /// Key(b)); −0.0 shares +0.0's key, as PairBefore ties them.
  static uint64_t Key(double x) {
    const uint64_t bits = std::bit_cast<uint64_t>(x == 0.0 ? 0.0 : x);
    return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  }

  uint64_t key_hi_;
  uint64_t key_lo_;
  unsigned shift_ = 0;
  size_t count_ = 0;
};

/// Exact scan of one tile: a-rows [unit.a_begin, unit.a_end) against
/// partner rows [unit.b_begin, unit.b_end). Row p's window is the set of
/// its partners the scan screens:
///
///   * triangle (pairs p < q of one sorted matrix): [max(p+1, b_begin),
///     end_p), where end_p is the partition point of the one-sided
///     cardinality bound — in sorted order card_p is the pair's min
///     throughout, so the fail test is scan::CardinalityFail on card_p;
///   * rectangle: [lo_p, hi_p), both ends partition points — below lo_p
///     the partner is the min and too small, from hi_p on card_p is the
///     min and too small;
///
/// each clamped to the tile's partner range, so the tiles of one pass
/// enumerate exactly the pass's pair set, each pair once. Without the
/// prefilter a window is the whole partner range. The window ends are
/// non-decreasing in p (cards are sorted and CardinalityFail is
/// monotone), so the windows of four consecutive rows nearly coincide:
/// each 4-row block runs the 4×4 kernel over the union of its rows'
/// windows, and only pairs inside their own row's window are screened
/// and estimated. Leftover rows (< 4) and partner tails (< 4) take the
/// 1×8 kernel and single-pair popcounts. Every screened pair gets its
/// full-row Hamming distance, the same integer whichever kernel computes
/// it, then the exact log-alpha screen (prefilter only) and the
/// estimator. Returns the number of pairs screened.
size_t ScanTile(const Pass& pass, const ScanParams& params,
                const ScanUnit& unit, std::vector<Pair>* out) {
  const DigestMatrix& ma = *pass.a.matrix;
  const DigestMatrix& mb = *pass.b.matrix;
  const uint32_t* cards_a = pass.a.cards;
  const uint32_t* cards_b = pass.b.cards;
  const size_t words = ma.words_per_row();
  const std::vector<double>& table = *params.log_alpha_table;
  const VosEstimator& estimator = *params.estimator;
  const double tau = params.jaccard_threshold;
  const double tau_frac = tau / (1.0 + tau);
  const double cut_scale = scan::CutScale(tau_frac, ma.k());
  const double log_beta = pass.log_beta_pair;
  const size_t b_begin = unit.b_begin;
  const size_t b_end = unit.b_end;

  struct Window {
    size_t lo, hi;
  };
  const auto window_of = [&](size_t p) {
    const double card_p = cards_a[p];
    Window w{pass.triangle ? std::max(p + 1, b_begin) : b_begin, b_end};
    if (w.lo >= b_end) return Window{b_end, b_end};
    if (!params.prefilter) return w;
    if (!pass.triangle) {
      w.lo = static_cast<size_t>(
          std::partition_point(cards_b + b_begin, cards_b + b_end,
                               [&](uint32_t card_q) {
                                 return scan::CardinalityFail(
                                     card_q, card_p + card_q, tau_frac);
                               }) -
          cards_b);
    }
    w.hi = static_cast<size_t>(
        std::partition_point(cards_b + w.lo, cards_b + b_end,
                             [&](uint32_t card_q) {
                               return !scan::CardinalityFail(
                                   card_p, card_p + card_q, tau_frac);
                             }) -
        cards_b);
    return w;
  };

  size_t screened = 0;
  // Pair (p, q) at full-row distance d: the exact screen against the
  // slacked log-alpha cut (sound only under the prefilter's gating),
  // then the estimator.
  const auto finish = [&](size_t p, size_t q, size_t d) {
    ++screened;
    const double card_p = cards_a[p];
    const double card_q = cards_b[q];
    if (params.prefilter &&
        table[d] < scan::SlackedCut(cut_scale * (card_p + card_q) +
                                    2.0 * log_beta)) {
      return;
    }
    const PairEstimate est =
        estimator.EstimateFromLogTerms(card_p, card_q, table[d], log_beta);
    if (est.jaccard >= tau) pass.emit(p, q, est, *out);
  };

  // Row p against partners [q, q_end), eight at a time.
  const auto scan_row = [&](size_t p, size_t q, size_t q_end) {
    const uint64_t* row = ma.Row(p);
    size_t d8[8];
    for (; q + 8 <= q_end; q += 8) {
      XorPopcount8(row, mb.Row(q), words, words, d8);
      for (size_t t = 0; t < 8; ++t) finish(p, q + t, d8[t]);
    }
    for (; q < q_end; ++q) finish(p, q, XorPopcount(row, mb.Row(q), words));
  };

  size_t p = unit.a_begin;
  for (; p + 4 <= unit.a_end; p += 4) {
    Window w[4];
    size_t q_begin = b_end;
    size_t q_end = b_begin;
    for (size_t r = 0; r < 4; ++r) {
      w[r] = window_of(p + r);
      if (w[r].lo < w[r].hi) {
        q_begin = std::min(q_begin, w[r].lo);
        q_end = std::max(q_end, w[r].hi);
      }
    }
    size_t q = q_begin;
    size_t d16[16];
    for (; q + 4 <= q_end; q += 4) {
      XorPopcount4x4(ma.Row(p), mb.Row(q), words, words, d16);
      for (size_t r = 0; r < 4; ++r) {
        for (size_t t = 0; t < 4; ++t) {
          if (q + t >= w[r].lo && q + t < w[r].hi) {
            finish(p + r, q + t, d16[4 * r + t]);
          }
        }
      }
    }
    for (size_t r = 0; r < 4; ++r) {
      scan_row(p + r, std::max(q, w[r].lo), w[r].hi);
    }
  }
  for (; p < unit.a_end; ++p) {
    const Window w = window_of(p);
    scan_row(p, w.lo, w.hi);
  }
  return screened;
}

}  // namespace

std::vector<scan::Entry> TopK(const TopKQuery& query, size_t k,
                              const std::vector<TopKSide>& sides,
                              const VosEstimator& estimator,
                              const std::vector<double>& table) {
  if (k == 0) return {};
  const double card_q = query.card;
  const bool clamped = estimator.options().clamp_to_feasible;
  size_t rows = 0;
  for (const TopKSide& side : sides) rows += side.rows.rows();

  // The best ≤ k entries so far, a heap under EntryBefore: front() is
  // the worst of them. Once k are held its Ĵ is `bound`, a lower bound
  // on the final k-th best, and screening starts when the bound is
  // positive under clamping (scan::PrefilterApplies at τ = bound).
  std::vector<scan::Entry> best;
  best.reserve(std::min(k, rows));
  double bound = -std::numeric_limits<double>::infinity();
  bool screen = false;
  double bound_frac = 0.0;
  double cut_scale = 0.0;
  const auto admit = [&](const scan::Entry& entry) {
    if (best.size() == k) {
      if (!scan::EntryBefore(entry, best.front())) return;
      std::pop_heap(best.begin(), best.end(), scan::EntryBefore);
      best.back() = entry;
    } else {
      best.push_back(entry);
    }
    std::push_heap(best.begin(), best.end(), scan::EntryBefore);
    if (best.size() < k) return;
    bound = best.front().jaccard;
    screen = scan::PrefilterApplies(clamped, bound);
    bound_frac = bound / (1.0 + bound);
    cut_scale = scan::CutScale(bound_frac, estimator.k());
  };

  for (const TopKSide& side : sides) {
    const DigestMatrix& m = *side.rows.matrix;
    const uint32_t* cards = side.rows.cards;
    const size_t n = side.rows.rows();
    const size_t words = m.words_per_row();
    const double log_beta = side.log_beta_pair;
    const auto card_fails = [&](size_t p) {
      return screen &&
             scan::CardinalityFail(std::min<double>(card_q, cards[p]),
                                   card_q + cards[p], bound_frac);
    };
    // Row p at Hamming distance d: the log-alpha screen, the estimate,
    // then the comparison with the bound — rows strictly below it never
    // reach the row → id mapping.
    const auto offer = [&](size_t p, size_t d) {
      const double card = cards[p];
      if (screen &&
          table[d] < scan::SlackedCut(cut_scale * (card_q + card) +
                                      2.0 * log_beta)) {
        return;
      }
      const PairEstimate est =
          estimator.EstimateFromLogTerms(card_q, card, table[d], log_beta);
      if (est.jaccard < bound) return;
      const stream::UserId user = side.user_of(p);
      if (user == query.user) return;
      admit({user, est.common, est.jaccard});
    };
    size_t p = 0;
    size_t d8[8];
    for (; p + 8 <= n; p += 8) {
      bool any = false;
      for (size_t t = 0; t < 8 && !any; ++t) any = !card_fails(p + t);
      if (!any) continue;
      XorPopcount8(query.row, m.Row(p), words, words, d8);
      for (size_t t = 0; t < 8; ++t) {
        if (!card_fails(p + t)) offer(p + t, d8[t]);
      }
    }
    for (; p < n; ++p) {
      if (!card_fails(p)) offer(p, XorPopcount(query.row, m.Row(p), words));
    }
  }
  std::sort_heap(best.begin(), best.end(), scan::EntryBefore);
  return best;
}

std::vector<scan::Pair> RunPasses(const std::vector<Pass>& passes,
                                  const ScanParams& params, size_t tile_rows,
                                  unsigned num_threads) {
  if (passes.empty()) return {};
  const size_t tile =
      tile_rows != 0
          ? tile_rows
          : optimizer::AdaptiveTileRows(passes[0].a.matrix->words_per_row());
  const double tau_frac =
      params.jaccard_threshold / (1.0 + params.jaccard_threshold);
  std::vector<ScanUnit> units;
  for (size_t pi = 0; pi < passes.size(); ++pi) {
    const Pass& pass = passes[pi];
    const size_t n_a = pass.a.rows();
    const size_t n_b = pass.triangle ? n_a : pass.b.rows();
    if (n_a == 0 || n_b == 0 || (pass.triangle && n_a < 2)) continue;
    if (pass.triangle) {
      for (size_t a0 = 0; a0 < n_a; a0 += tile) {
        const size_t a1 = std::min(n_a, a0 + tile);
        for (size_t b0 = a0; b0 < n_a; b0 += tile) {
          const size_t b1 = std::min(n_a, b0 + tile);
          if (params.prefilter && b0 > a0) {
            // Tile-level window prune: the most admissible pair of an
            // off-diagonal tile is the largest a-row against the
            // smallest b-row (CardinalityFail is monotone both ways);
            // if even that pair fails, no pair in the tile can pass.
            const double card_p = pass.a.cards[a1 - 1];
            if (scan::CardinalityFail(card_p, card_p + pass.a.cards[b0],
                                      tau_frac)) {
              break;  // later b-blocks only grow the partner cardinality
            }
          }
          ScanUnit unit;
          unit.pass = pi;
          unit.a_begin = a0;
          unit.a_end = a1;
          unit.b_begin = b0;
          unit.b_end = b1;
          units.push_back(unit);
        }
      }
    } else {
      for (size_t a0 = 0; a0 < n_a; a0 += tile) {
        const size_t a1 = std::min(n_a, a0 + tile);
        size_t lo = 0, hi = n_b;
        if (params.prefilter) {
          // Block-level window: lo/hi are non-decreasing in the a-row,
          // so the union of the block's per-row windows is
          // [lo(first row), hi(last row)) — tiles outside it hold only
          // provably failing pairs.
          const double card_first = pass.a.cards[a0];
          const double card_last = pass.a.cards[a1 - 1];
          const uint32_t* lo_it = std::partition_point(
              pass.b.cards, pass.b.cards + n_b, [&](uint32_t card_j) {
                return scan::CardinalityFail(card_j, card_first + card_j,
                                             tau_frac);
              });
          const uint32_t* hi_it = std::partition_point(
              lo_it, pass.b.cards + n_b, [&](uint32_t card_j) {
                return !scan::CardinalityFail(card_last, card_last + card_j,
                                              tau_frac);
              });
          lo = static_cast<size_t>(lo_it - pass.b.cards);
          hi = static_cast<size_t>(hi_it - pass.b.cards);
        }
        for (size_t b0 = 0; b0 < n_b; b0 += tile) {
          const size_t b1 = std::min(n_b, b0 + tile);
          if (params.prefilter && (b1 <= lo || b0 >= hi)) continue;
          ScanUnit unit;
          unit.pass = pi;
          unit.a_begin = a0;
          unit.a_end = a1;
          unit.b_begin = b0;
          unit.b_end = b1;
          units.push_back(unit);
        }
      }
    }
  }
  if (units.empty()) return {};


  // Step 1: scan each unit into its own buffer, then count its pairs
  // into the worker's Ĵ buckets while they are still in cache. (One
  // growing buffer per worker instead cost ~6 MiB more peak RSS on
  // allpairs-sweep.) Counters are per worker, not per unit: every bucket
  // is sorted with a total order in step 3, so which worker moves a pair
  // never shows in the result.
  const JaccardBuckets bucket_of(params.jaccard_threshold);
  const size_t buckets = bucket_of.count();
  const unsigned threads = ResolveThreadCount(num_threads, units.size());
  std::vector<std::vector<scan::Pair>> per_unit(units.size());
  std::vector<std::vector<size_t>> units_of(threads);
  std::vector<std::vector<size_t>> counts(threads,
                                          std::vector<size_t>(buckets));
  scan::RunIndexed(threads, units.size(), [&](size_t i, unsigned worker) {
    const size_t screened =
        ScanTile(passes[units[i].pass], params, units[i], &per_unit[i]);
    if (params.screened_pairs != nullptr) {
      params.screened_pairs->fetch_add(screened, std::memory_order_relaxed);
    }
    units_of[worker].push_back(i);
    size_t* count = counts[worker].data();
    for (const scan::Pair& pair : per_unit[i]) {
      ++count[bucket_of(pair.jaccard)];
    }
  });
  size_t total = 0;
  for (const auto& pairs : per_unit) total += pairs.size();

  if (total <= kSerialSortPairs) {
    std::vector<scan::Pair> result;
    result.reserve(total);
    for (const auto& pairs : per_unit) {
      result.insert(result.end(), pairs.begin(), pairs.end());
    }
    std::sort(result.begin(), result.end(), scan::PairBefore);
    return result;
  }

  // Step 2: a prefix sum over (bucket, worker) turns each worker's
  // counts into write cursors of disjoint slices; each worker scatters
  // the units it scanned.
  std::vector<size_t> bucket_begin(buckets + 1);
  size_t offset = 0;
  for (size_t b = 0; b < buckets; ++b) {
    bucket_begin[b] = offset;
    for (unsigned w = 0; w < threads; ++w) {
      const size_t n = counts[w][b];
      counts[w][b] = offset;
      offset += n;
    }
  }
  bucket_begin[buckets] = offset;
  std::vector<scan::Pair> result(total);
  scan::RunIndexed(threads, threads, [&](size_t w) {
    size_t* cursor = counts[w].data();
    for (const size_t i : units_of[w]) {
      for (const scan::Pair& pair : per_unit[i]) {
        result[cursor[bucket_of(pair.jaccard)]++] = pair;
      }
    }
  });

  // Step 3: buckets are ordered by descending Ĵ; sorting each one with
  // PairBefore completes the total order.
  scan::RunIndexed(ResolveThreadCount(num_threads, buckets), buckets,
                   [&](size_t b) {
                     std::sort(result.begin() + bucket_begin[b],
                               result.begin() + bucket_begin[b + 1],
                               scan::PairBefore);
                   });
  return result;
}

}  // namespace vos::core::pair_scan
