// Tests for incremental index maintenance: SimilarityIndex::RefreshDirty
// patches the snapshot by flipping the digest bits of changed array cells
// and must be bit-identical to a full Rebuild on the same sketch state —
// for every delta size (including the shared-cell contamination case,
// where updates to NON-candidate users flip bits of clean candidates'
// digests, cells flipped back to their old value, and rows owning one
// cell twice), every thread count, and across repeated refreshes. Dirty
// tracking itself starts at the first incremental Rebuild, never before.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
#include "core/vos_drift.h"
#include "core/vos_io.h"
#include "core/vos_sketch.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

VosConfig SmallConfig(uint64_t m = 1 << 12) {
  VosConfig config;
  config.k = 256;
  // Deliberately small array: shared-cell collisions between users are
  // frequent, so clean candidates' digests DO change when other users
  // update — the case RefreshDirty must catch via the array delta.
  config.m = m;
  config.seed = 31;
  return config;
}

VosSketch PopulatedSketch(const VosConfig& config, UserId users,
                          size_t edges_per_user, uint64_t seed) {
  VosSketch sketch(config, users);
  Rng rng(seed);
  for (UserId u = 0; u < users; ++u) {
    for (size_t i = 0; i < edges_per_user; ++i) {
      sketch.Update({u, static_cast<ItemId>(rng.NextBounded(1 << 28)),
                     Action::kInsert});
    }
  }
  return sketch;
}

/// Full bit-level equality of two index snapshots: candidate order,
/// per-row digests, cardinality order, β, the inverse index when both
/// are incremental, and the query results built from them.
void ExpectIndexesIdentical(const SimilarityIndex& refreshed,
                            const SimilarityIndex& rebuilt,
                            const std::string& context) {
  ASSERT_EQ(refreshed.candidate_count(), rebuilt.candidate_count())
      << context;
  EXPECT_EQ(refreshed.snapshot_beta(), rebuilt.snapshot_beta()) << context;
  EXPECT_EQ(refreshed.row_cardinalities(), rebuilt.row_cardinalities())
      << context;
  const DigestMatrix& ma = refreshed.matrix();
  const DigestMatrix& mb = rebuilt.matrix();
  ASSERT_EQ(ma.rows(), mb.rows()) << context;
  ASSERT_EQ(ma.words_per_row(), mb.words_per_row()) << context;
  for (size_t p = 0; p < ma.rows(); ++p) {
    ASSERT_EQ(refreshed.sorted_to_candidate(p), rebuilt.sorted_to_candidate(p))
        << context << " sorted position " << p;
    ASSERT_EQ(std::memcmp(ma.Row(p), mb.Row(p),
                          ma.words_per_row() * sizeof(uint64_t)),
              0)
        << context << " digest row at sorted position " << p;
  }
  if (refreshed.CanRefresh() && rebuilt.CanRefresh()) {
    EXPECT_EQ(refreshed.inverse_index_offsets(),
              rebuilt.inverse_index_offsets())
        << context;
    EXPECT_EQ(refreshed.inverse_index_entries(),
              rebuilt.inverse_index_entries())
        << context;
  }
  // End-to-end: identical snapshots answer identically.
  const auto pairs_a = refreshed.AllPairsAboveReference(0.2);
  const auto pairs_b = rebuilt.AllPairsAboveReference(0.2);
  ASSERT_EQ(pairs_a.size(), pairs_b.size()) << context;
  for (size_t i = 0; i < pairs_a.size(); ++i) {
    EXPECT_EQ(pairs_a[i].u, pairs_b[i].u) << context;
    EXPECT_EQ(pairs_a[i].v, pairs_b[i].v) << context;
    EXPECT_EQ(pairs_a[i].common, pairs_b[i].common) << context;
    EXPECT_EQ(pairs_a[i].jaccard, pairs_b[i].jaccard) << context;
  }
}

/// Applies `dirty_fraction` of the candidates a few fresh inserts (and a
/// matching delete for some), plus — crucially — updates to users OUTSIDE
/// the candidate set, whose flips can land in clean candidates' cells.
void Churn(VosSketch* sketch, const std::vector<UserId>& candidates,
           double dirty_fraction, ItemId* next_item) {
  const size_t dirty_count =
      static_cast<size_t>(dirty_fraction * candidates.size());
  for (size_t i = 0; i < dirty_count; ++i) {
    const ItemId item = (*next_item)++;
    sketch->Update({candidates[i], item, Action::kInsert});
    if (i % 3 == 0) {
      sketch->Update({candidates[i], item, Action::kDelete});
    }
    sketch->Update({candidates[i], (*next_item)++, Action::kInsert});
  }
  // Background churn from non-candidates (contamination-only changes).
  const UserId background = sketch->num_users() - 1;
  for (int i = 0; i < 20; ++i) {
    sketch->Update({background, (*next_item)++, Action::kInsert});
  }
}

std::vector<UserId> FirstUsers(UserId count) {
  std::vector<UserId> users;
  for (UserId u = 0; u < count; ++u) users.push_back(u);
  return users;
}

QueryOptions IncrementalOptions(unsigned threads) {
  QueryOptions options;
  options.num_threads = threads;
  options.incremental = true;
  return options;
}

/// A non-incremental snapshot of `candidates` at the sketch's state.
std::unique_ptr<SimilarityIndex> Fresh(const VosSketch& sketch,
                                       const std::vector<UserId>& candidates) {
  auto index = std::make_unique<SimilarityIndex>(sketch);
  index->Rebuild(candidates);
  return index;
}

/// Refreshes `index`, checks it against a fresh Rebuild and returns that.
std::unique_ptr<SimilarityIndex> RefreshAndCheck(SimilarityIndex& index,
                                                 const VosSketch& sketch,
                                                 const std::string& context) {
  index.RefreshDirty();
  auto fresh = Fresh(sketch, index.candidates());
  ExpectIndexesIdentical(index, *fresh, context);
  return fresh;
}

/// Number of candidates whose digest row or cardinality differs.
size_t ChangedRows(const SimilarityIndex& a, const SimilarityIndex& b) {
  size_t changed = 0;
  for (const UserId u : a.candidates()) {
    const size_t p = a.RowIndexOf(u);
    const size_t q = b.RowIndexOf(u);
    if (a.row_cardinality(p) != b.row_cardinality(q) ||
        std::memcmp(a.matrix().Row(p), b.matrix().Row(q),
                    a.matrix().words_per_row() * sizeof(uint64_t)) != 0) {
      ++changed;
    }
  }
  return changed;
}

TEST(RefreshDirtyTest, BitIdenticalToRebuildAcrossDirtyFractionsAndThreads) {
  const std::vector<UserId> candidates = FirstUsers(80);  // 80..119: background
  for (const unsigned threads : {1u, 2u, 8u}) {
    VosSketch sketch = PopulatedSketch(SmallConfig(), 120, 60, 5);
    SimilarityIndex refreshed(sketch, {}, IncrementalOptions(threads));
    refreshed.Rebuild(candidates);
    EXPECT_TRUE(refreshed.CanRefresh());
    ItemId next_item = 1 << 29;
    // Up to full churn (every candidate dirty) and back: the patch covers
    // every delta size, with no fallback to a rebuild.
    for (const double fraction : {0.0, 0.01, 0.5, 1.0, 0.01}) {
      Churn(&sketch, candidates, fraction, &next_item);
      RefreshAndCheck(refreshed, sketch,
                      "threads=" + std::to_string(threads) +
                          " fraction=" + std::to_string(fraction));
      if (fraction == 1.0) {
        EXPECT_EQ(refreshed.last_refresh_dirty_fraction(), 1.0);
      }
    }
  }
}

TEST(RefreshDirtyTest, CellFlippedBackLeavesRowsUntouched) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 40, 30, 47);
  SimilarityIndex index(sketch, {}, IncrementalOptions(1));
  index.Rebuild(FirstUsers(30));
  // Insert then delete the same element (candidate and non-candidate):
  // each cell flips twice, so the array, every digest and every
  // cardinality end where they started although both users are dirty.
  for (const UserId u : {UserId{4}, UserId{35}}) {
    sketch.Update({u, ItemId{1} << 29, Action::kInsert});
    sketch.Update({u, ItemId{1} << 29, Action::kDelete});
  }
  ASSERT_TRUE(sketch.IsDirty(4));
  RefreshAndCheck(index, sketch, "net-zero cell flips");
  EXPECT_EQ(index.last_refresh_dirty_fraction(), 0.0);
}

TEST(RefreshDirtyTest, RowsOwningOneCellTwice) {
  // m < k: by pigeonhole every row maps two of its bits to one cell, so a
  // single changed cell flips several bits of the same row.
  VosSketch sketch = PopulatedSketch(SmallConfig(128), 24, 20, 53);
  std::set<uint64_t> cells_of_zero;
  for (uint32_t j = 0; j < sketch.config().k; ++j) {
    cells_of_zero.insert(sketch.CellOf(0, j));
  }
  ASSERT_LT(cells_of_zero.size(), sketch.config().k);
  SimilarityIndex index(sketch, {}, IncrementalOptions(2));
  index.Rebuild(FirstUsers(24));
  ItemId next_item = 1 << 29;
  for (UserId u = 0; u < 20; ++u) {
    sketch.Update({u, next_item++, Action::kInsert});
    if (u % 5 == 4) RefreshAndCheck(index, sketch, "duplicate cells");
  }
}

TEST(RefreshDirtyTest, NonCandidateUpdateFlipsCandidateBit) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 40, 30, 59);
  const std::vector<UserId> candidates = FirstUsers(20);
  std::set<uint64_t> candidate_cells;
  for (const UserId u : candidates) {
    for (uint32_t j = 0; j < sketch.config().k; ++j) {
      candidate_cells.insert(sketch.CellOf(u, j));
    }
  }
  // An element of non-candidate 30 whose cell a candidate owns.
  ItemId item = 1 << 29;
  while (candidate_cells.count(sketch.CellOf(30, sketch.BucketOf(item))) ==
         0) {
    ++item;
  }
  SimilarityIndex index(sketch, {}, IncrementalOptions(1));
  index.Rebuild(candidates);
  const auto before = Fresh(sketch, candidates);
  sketch.Update({30, item, Action::kInsert});
  for (const UserId u : candidates) ASSERT_FALSE(sketch.IsDirty(u));
  const auto after = RefreshAndCheck(index, sketch, "contamination flip");
  const size_t changed = ChangedRows(*before, *after);
  EXPECT_GT(changed, 0u);
  EXPECT_EQ(index.last_refresh_dirty_fraction(), changed / 20.0);
}

TEST(RefreshDirtyTest, DeletionsDownToZeroCardinality) {
  VosSketch sketch(SmallConfig(1 << 13), 30);
  std::vector<std::vector<ItemId>> items(30);
  Rng rng(61);
  for (UserId u = 0; u < 30; ++u) {
    for (int i = 0; i < 25; ++i) {
      items[u].push_back(static_cast<ItemId>(rng.NextBounded(1 << 28)));
      sketch.Update({u, items[u].back(), Action::kInsert});
    }
  }
  SimilarityIndex index(sketch, {}, IncrementalOptions(2));
  index.Rebuild(FirstUsers(30));
  // Empty users 0..9 in two steps; a zero-cardinality row sorts first.
  for (const size_t keep : {size_t{10}, size_t{0}}) {
    for (UserId u = 0; u < 10; ++u) {
      for (; items[u].size() > keep; items[u].pop_back()) {
        sketch.Update({u, items[u].back(), Action::kDelete});
      }
    }
    RefreshAndCheck(index, sketch, "deletions to " + std::to_string(keep));
  }
  EXPECT_EQ(index.row_cardinality(0), 0u);
}

/// Seeded operation sequence: many refreshes whose deltas range from one
/// element to more than the whole stream, mixing inserts and deletes of
/// live elements from candidates and non-candidates. After every refresh
/// the patched index must equal a fresh non-incremental Rebuild, and its
/// dirty fraction must count exactly the rows whose digest or
/// cardinality changed.
TEST(RefreshDirtyTest, SeededDeltaSizesFromOneElementToBeyondTheStream) {
  const UserId users = 64;
  const std::vector<UserId> candidates = FirstUsers(48);
  VosSketch sketch(SmallConfig(1 << 11), users);
  std::vector<Element> live;
  Rng rng(67);
  ItemId next_item = 1;
  const auto insert = [&] {
    live.push_back({static_cast<UserId>(rng.NextBounded(users)), next_item++,
                    Action::kInsert});
    sketch.Update(live.back());
  };
  for (int i = 0; i < 1500; ++i) insert();
  const size_t stream = live.size();
  SimilarityIndex index(sketch, {}, IncrementalOptions(2));
  index.Rebuild(candidates);
  auto previous = Fresh(sketch, candidates);
  for (const size_t delta : {size_t{1}, size_t{1}, size_t{2}, size_t{7},
                             size_t{30}, size_t{150}, size_t{600}, stream,
                             2 * stream + 1, size_t{3}, size_t{0},
                             3 * stream}) {
    for (size_t e = 0; e < delta; ++e) {
      if (live.empty() || rng.NextBounded(2) == 0) {
        insert();
        continue;
      }
      const size_t victim = rng.NextBounded(live.size());
      sketch.Update({live[victim].user, live[victim].item, Action::kDelete});
      live[victim] = live.back();
      live.pop_back();
    }
    const std::string context = "delta=" + std::to_string(delta);
    auto fresh = RefreshAndCheck(index, sketch, context);
    EXPECT_EQ(index.last_refresh_dirty_fraction(),
              static_cast<double>(ChangedRows(*previous, *fresh)) /
                  candidates.size())
        << context;
    previous = std::move(fresh);
  }
}

TEST(RefreshDirtyTest, NoChangesIsANoOpSnapshot) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 40, 50, 9);
  SimilarityIndex index(sketch, {}, IncrementalOptions(1));
  index.Rebuild(FirstUsers(40));
  const auto before = index.AllPairsAboveReference(0.1);
  index.RefreshDirty();  // nothing changed since Rebuild
  const auto after = index.AllPairsAboveReference(0.1);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].u, after[i].u);
    EXPECT_EQ(before[i].common, after[i].common);
  }
}

TEST(RefreshDirtyTest, CardinalityOnlyChangesReorderCorrectly) {
  // Insert+delete pairs that cancel in the array can still change n_u
  // (two items on the same virtual bit). Force the scenario: give one
  // candidate a big cardinality jump so the sorted window order changes,
  // and verify refresh tracks the re-sort exactly.
  VosSketch sketch = PopulatedSketch(SmallConfig(1 << 14), 30, 20, 13);
  SimilarityIndex refreshed(sketch, {}, IncrementalOptions(1));
  refreshed.Rebuild(FirstUsers(30));
  for (ItemId item = 0; item < 500; ++item) {
    sketch.Update({7, static_cast<ItemId>((1 << 27) + item),
                   Action::kInsert});
  }
  RefreshAndCheck(refreshed, sketch, "cardinality jump");
}

/// The inverse index recomputed by brute force: every digest bit's flat
/// index i·k + j under the array word of its cell, ascending per word.
void ExpectInverseIndexMatchesOracle(const SimilarityIndex& index,
                                     const VosSketch& sketch,
                                     const std::string& context) {
  const uint32_t k = sketch.config().k;
  std::vector<std::vector<uint32_t>> owners((sketch.config().m + 63) / 64);
  for (size_t i = 0; i < index.candidate_count(); ++i) {
    for (uint32_t j = 0; j < k; ++j) {
      owners[sketch.CellOf(index.candidates()[i], j) >> 6].push_back(
          static_cast<uint32_t>(i * k + j));
    }
  }
  std::vector<uint32_t> offsets{0};
  std::vector<uint32_t> entries;
  for (const std::vector<uint32_t>& word : owners) {
    entries.insert(entries.end(), word.begin(), word.end());
    offsets.push_back(static_cast<uint32_t>(entries.size()));
  }
  EXPECT_EQ(index.inverse_index_offsets(), offsets) << context;
  EXPECT_EQ(index.inverse_index_entries(), entries) << context;
}

/// `n` candidates, led by owners of the cells on both sides of every
/// 2^16-cell partition boundary and of the array's last cell (boundary
/// cells are where a partition-index slip shows), then the lowest other
/// user ids.
std::vector<UserId> BoundaryOwnersFirst(const VosSketch& sketch, size_t n) {
  const uint64_t m = sketch.config().m;
  std::set<uint64_t> targets{m - 1};
  for (uint64_t edge = uint64_t{1} << 16; edge < m; edge += uint64_t{1} << 16) {
    targets.insert(edge - 1);
    targets.insert(edge);
  }
  std::vector<UserId> owners;
  std::vector<UserId> others;
  for (UserId u = 0; u < sketch.num_users(); ++u) {
    bool owns_target = false;
    for (uint32_t j = 0; j < sketch.config().k; ++j) {
      owns_target |= targets.erase(sketch.CellOf(u, j)) > 0;
    }
    (owns_target ? owners : others).push_back(u);
  }
  EXPECT_TRUE(targets.empty()) << targets.size() << " boundary cells unowned";
  owners.insert(owners.end(), others.begin(), others.end());
  owners.resize(n);
  return owners;
}

/// Rebuild sorts the inverse index in partitions of 2^16 cells on
/// several workers. Arrays spanning three partitions plus a partial
/// fourth (whose last word is partial too) and arrays below one
/// partition, candidate counts from 0 to 200, and 1, 2 or 8 workers must
/// all give the brute-force inverse index, and every snapshot of a seeded
/// refresh sequence must equal a fresh single-threaded Rebuild — inverse
/// index included.
TEST(IncrementalRebuildTest, PartitionEdgesAndThreadCounts) {
  const UserId users = 6000;  // enough to own every boundary cell
  for (const uint64_t m : {uint64_t{3} * (1 << 16) + 777, uint64_t{1} << 12}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{200}}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        const std::string context = "m=" + std::to_string(m) +
                                    " n=" + std::to_string(n) +
                                    " threads=" + std::to_string(threads);
        VosSketch sketch(SmallConfig(m), users);
        const std::vector<UserId> candidates = BoundaryOwnersFirst(sketch, n);
        // The candidates plus 40 background users hold the stream.
        std::vector<UserId> active = candidates;
        for (UserId u = users - 40; u < users; ++u) active.push_back(u);
        Rng rng(79 + threads + n);
        ItemId next_item = 1;
        for (const UserId u : active) {
          for (int e = 0; e < 30; ++e) {
            sketch.Update({u, next_item++, Action::kInsert});
          }
        }
        SimilarityIndex index(sketch, {}, IncrementalOptions(threads));
        index.Rebuild(candidates);
        ExpectInverseIndexMatchesOracle(index, sketch, context);
        for (int step = 0; step <= 4; ++step) {
          if (step > 0) {
            for (int e = 0; e < 40 * step; ++e) {
              const UserId user = active[rng.NextBounded(active.size())];
              const ItemId item = next_item++;
              sketch.Update({user, item, Action::kInsert});
              if (e % 4 == 0) sketch.Update({user, item, Action::kDelete});
            }
            index.RefreshDirty();
          }
          // The reference reads a copy: its Rebuild must not consume the
          // dirty set the refreshed index drains next.
          const VosSketch copy = sketch;
          SimilarityIndex fresh(copy, {}, IncrementalOptions(1));
          fresh.Rebuild(candidates);
          ExpectIndexesIdentical(index, fresh,
                                 context + " step=" + std::to_string(step));
        }
      }
    }
  }
}

/// The incremental index holds cells and flat digest-bit indices as
/// uint32: it fits up to m = 2³²−1 cells and candidates·k = 2³²−1 bits.
TEST(IncrementalRebuildTest, FitsAtTheUint32Limits) {
  constexpr uint64_t kMax = 0xffffffff;
  EXPECT_TRUE(SimilarityIndex::IncrementalFits(kMax, 1, kMax));
  EXPECT_FALSE(SimilarityIndex::IncrementalFits(kMax + 1, 1, 1));
  EXPECT_FALSE(SimilarityIndex::IncrementalFits(1 << 16, 1, kMax + 1));
  EXPECT_TRUE(SimilarityIndex::IncrementalFits(1 << 16, 65535, 65537));
  EXPECT_FALSE(SimilarityIndex::IncrementalFits(1 << 16, 65536, 65536));
  EXPECT_TRUE(SimilarityIndex::IncrementalFits(0, 0, 0));
}

TEST(RefreshDirtyTest, RequiresIncrementalOptionAndPriorRebuild) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 10, 10, 17);
  SimilarityIndex index(sketch, {}, IncrementalOptions(0));
  EXPECT_FALSE(index.CanRefresh());  // no Rebuild yet
  EXPECT_FALSE(Fresh(sketch, {0, 1, 2})->CanRefresh());  // incremental off
}

/// A sketch has one incremental consumer. Two incremental indexes on it
/// clear each other's dirty set; here user 4 gains two items in the same
/// ψ bucket, so the array is unchanged and only the dirty set records
/// that n₄ grew. Whichever index refreshes after the other cleared would
/// miss it and return a stale snapshot, so RefreshDirty aborts instead.
TEST(RefreshDirtyDeathTest, SecondIncrementalConsumerAborts) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 10, 10, 17);
  const std::vector<UserId> candidates = FirstUsers(8);
  SimilarityIndex first(sketch, {}, IncrementalOptions(1));
  first.Rebuild(candidates);
  SimilarityIndex second(sketch, {}, IncrementalOptions(1));
  second.Rebuild(candidates);

  const ItemId a = 1 << 29;
  ItemId b = a + 1;
  while (sketch.BucketOf(b) != sketch.BucketOf(a)) ++b;
  const std::vector<uint64_t> words = sketch.array().words();
  sketch.Update({4, a, Action::kInsert});
  sketch.Update({4, b, Action::kInsert});
  ASSERT_EQ(sketch.array().words(), words);

  EXPECT_DEATH(
      {
        first.RefreshDirty();
        second.RefreshDirty();
      },
      "another consumer cleared");
  // One consumer alone refreshes fine and sees the change.
  SimilarityIndex only(sketch, {}, IncrementalOptions(1));
  only.Rebuild(candidates);
  sketch.Update({4, a, Action::kDelete});
  sketch.Update({4, b, Action::kDelete});
  RefreshAndCheck(only, sketch, "single consumer");
}

// ------------------------------------------------- Changed-word summary

/// Number of words the changed-word summary flags.
size_t FlaggedWords(const VosSketch& sketch) {
  size_t flagged = 0;
  for (const uint64_t bits : sketch.changed_words()) {
    flagged += static_cast<size_t>(std::popcount(bits));
  }
  return flagged;
}

TEST(ChangedWordSummaryTest, UpdateFlagsTheFlippedWordAndClearZeroes) {
  VosSketch sketch(SmallConfig(1 << 13), 20);
  sketch.StartDirtyTracking();
  ASSERT_EQ(sketch.changed_words().size(),
            (sketch.array().words().size() + 63) / 64);
  EXPECT_EQ(FlaggedWords(sketch), 0u);
  const Element e{3, ItemId{1} << 29, Action::kInsert};
  sketch.Update(e);
  const uint64_t word = sketch.CellOf(e.user, sketch.BucketOf(e.item)) >> 6;
  EXPECT_EQ(FlaggedWords(sketch), 1u);
  EXPECT_EQ((sketch.changed_words()[word >> 6] >> (word & 63)) & 1, 1u);
  // Flipping the cell back leaves the word flagged: the summary is
  // conservative, the refresh's compare finds the word unchanged.
  sketch.Update({e.user, e.item, Action::kDelete});
  EXPECT_EQ(FlaggedWords(sketch), 1u);
  sketch.ClearDirtyUsers();
  EXPECT_EQ(FlaggedWords(sketch), 0u);
}

TEST(ChangedWordSummaryTest, TrackingStartsOnlyWhenAsked) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 30, 20, 71);
  EXPECT_FALSE(sketch.tracks_dirty());
  EXPECT_TRUE(sketch.changed_words().empty());
  EXPECT_TRUE(sketch.dirty_users().empty());
  EXPECT_EQ(sketch.BookkeepingBits(), 30u * 32u);  // cardinalities only
  sketch.StartDirtyTracking();
  EXPECT_TRUE(sketch.tracks_dirty());
  // Plus epochs and one summary word (64 array words), nothing flagged:
  // the updates before the start are not recorded.
  EXPECT_EQ(sketch.BookkeepingBits(), 30u * 64u + 64u);
  EXPECT_EQ(FlaggedWords(sketch), 0u);
  EXPECT_TRUE(sketch.dirty_users().empty());
}

/// The decoder writes the array outside Update. A decoded sketch tracks
/// nothing, so its first incremental consumer takes a full snapshot.
TEST(ChangedWordSummaryTest, DecodedSketchDoesNotTrack) {
  VosSketch sketch = PopulatedSketch(SmallConfig((1 << 12) + 100), 30, 20, 97);
  sketch.StartDirtyTracking();
  std::string fields;
  VosSketchIo::SerializeFields(sketch, &fields);
  size_t consumed = 0;
  const StatusOr<VosSketch> decoded = VosSketchIo::ParseFields(
      reinterpret_cast<const uint8_t*>(fields.data()), fields.size(),
      VosSketchIo::kVersion, "decoded", &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->array().words(), sketch.array().words());
  EXPECT_FALSE(decoded->tracks_dirty());
  EXPECT_TRUE(decoded->changed_words().empty());
}

/// A copy carries its own summary: clearing the copy (as a reference
/// Rebuild on it does) must not clear the original's, which the
/// original's incremental index still needs.
TEST(ChangedWordSummaryTest, CopiedSketchKeepsItsSummary) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 40, 30, 73);
  const std::vector<UserId> candidates = FirstUsers(30);
  SimilarityIndex index(sketch, {}, IncrementalOptions(1));
  index.Rebuild(candidates);
  ItemId next_item = 1 << 29;
  for (const UserId u : {UserId{1}, UserId{12}, UserId{35}}) {
    sketch.Update({u, next_item++, Action::kInsert});
  }
  const VosSketch copy = sketch;
  EXPECT_EQ(copy.changed_words(), sketch.changed_words());
  EXPECT_EQ(FlaggedWords(copy), FlaggedWords(sketch));
  EXPECT_GT(FlaggedWords(copy), 0u);
  SimilarityIndex on_copy(copy, {}, IncrementalOptions(1));
  on_copy.Rebuild(candidates);  // clears the copy's dirty set and summary
  EXPECT_EQ(FlaggedWords(copy), 0u);
  EXPECT_GT(FlaggedWords(sketch), 0u);
  RefreshAndCheck(index, sketch, "original after the copy was cleared");
}

/// MergeFrom writes the array outside Update. A shard whose updates all
/// belong to non-candidates changes candidates' digests through shared
/// cells while no candidate becomes dirty; the summary must still flag
/// those words.
TEST(ChangedWordSummaryTest, MergeOfNonCandidateUpdatesRefreshesExactly) {
  const VosConfig config = SmallConfig();
  VosSketch sketch = PopulatedSketch(config, 40, 30, 79);
  const std::vector<UserId> candidates = FirstUsers(20);
  std::set<uint64_t> candidate_cells;
  for (const UserId u : candidates) {
    for (uint32_t j = 0; j < config.k; ++j) {
      candidate_cells.insert(sketch.CellOf(u, j));
    }
  }
  SimilarityIndex index(sketch, {}, IncrementalOptions(2));
  index.Rebuild(candidates);
  const auto before = Fresh(sketch, candidates);

  VosSketch other(config, 40);
  ItemId item = 1 << 29;
  size_t hits = 0;
  for (UserId u = 20; u < 40; ++u, ++item) {
    hits += candidate_cells.count(sketch.CellOf(u, sketch.BucketOf(item)));
    other.Update({u, item, Action::kInsert});
  }
  ASSERT_GT(hits, 0u);
  const std::vector<uint64_t> words = sketch.array().words();
  sketch.MergeFrom(other);
  ASSERT_NE(sketch.array().words(), words);
  for (const UserId u : candidates) ASSERT_FALSE(sketch.IsDirty(u));
  // Every word the merge changed is flagged.
  for (size_t w = 0; w < words.size(); ++w) {
    if (words[w] == sketch.array().words()[w]) continue;
    EXPECT_EQ((sketch.changed_words()[w >> 6] >> (w & 63)) & 1, 1u)
        << "word " << w;
  }
  const auto after = RefreshAndCheck(index, sketch, "merge of non-candidates");
  EXPECT_GT(ChangedRows(*before, *after), 0u);
}

/// Checks every shard index of `planner` against a fresh non-incremental
/// Rebuild of its candidates: matrix rows, row cardinalities, β (all via
/// ExpectIndexesIdentical) and RowIndexOf for every candidate.
void ExpectPlannerMatchesRebuild(const QueryPlanner& planner,
                                 const ShardedVosSketch& sketch,
                                 const std::string& context) {
  for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
    const SimilarityIndex& index = planner.shard_index(s);
    const auto fresh = Fresh(sketch.shard(s), index.candidates());
    const std::string where = context + " shard " + std::to_string(s);
    ExpectIndexesIdentical(index, *fresh, where);
    for (const UserId u : index.candidates()) {
      ASSERT_EQ(index.RowIndexOf(u), fresh->RowIndexOf(u))
          << where << " local user " << u;
    }
  }
}

/// Randomized differential test of the refresh path: seeded sequences
/// of inserts, deletes of live elements, insert-delete pairs (cells
/// flipped back) and merges of side sketches into a shard, in stretches
/// of 0 to a few hundred operations between QueryPlanner::Refresh calls.
/// After every refresh each shard snapshot must equal a fresh Rebuild.
TEST(RefreshDirtyDifferentialTest, RandomOpsAndMergesMatchRebuild) {
  const UserId users = 96;
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned threads : {1u, 2u}) {
      for (const uint64_t seed : {uint64_t{83}, uint64_t{89}}) {
        const std::string context = "S=" + std::to_string(shards) +
                                    " T=" + std::to_string(threads) +
                                    " seed=" + std::to_string(seed);
        ShardedVosConfig config;
        config.base = SmallConfig(1 << 12);
        config.num_shards = shards;
        ShardedVosSketch sketch(config, users);
        Rng rng(seed);
        std::vector<Element> live;
        ItemId next_item = 1;
        const auto insert = [&] {
          live.push_back({static_cast<UserId>(rng.NextBounded(users)),
                          next_item++, Action::kInsert});
          sketch.Update(live.back());
        };
        for (int i = 0; i < 800; ++i) insert();
        ASSERT_TRUE(sketch.Flush().ok()) << context;
        // Users 0..71 are candidates; 72..95 only contaminate.
        QueryPlanner planner(sketch, {}, IncrementalOptions(threads));
        planner.Rebuild(FirstUsers(72));

        for (int step = 0; step < 24; ++step) {
          const size_t ops = rng.NextBounded(4) == 0 ? rng.NextBounded(300)
                                                     : rng.NextBounded(6);
          for (size_t op = 0; op < ops; ++op) {
            switch (rng.NextBounded(8)) {
              case 0:
              case 1:
              case 2:
                insert();
                break;
              case 3:
              case 4:
              case 5: {
                if (live.empty()) break;
                const size_t victim = rng.NextBounded(live.size());
                sketch.Update(
                    {live[victim].user, live[victim].item, Action::kDelete});
                live[victim] = live.back();
                live.pop_back();
                break;
              }
              case 6: {
                const Element e{static_cast<UserId>(rng.NextBounded(users)),
                                next_item++, Action::kInsert};
                sketch.Update(e);
                sketch.Update({e.user, e.item, Action::kDelete});
                break;
              }
              default: {
                // A side shard's inserts merged into one live shard.
                ASSERT_TRUE(sketch.Flush().ok()) << context;
                const auto s = static_cast<uint32_t>(rng.NextBounded(shards));
                VosSketch side(ShardedVosSketch::ShardConfig(config, s),
                               sketch.ShardUserCount(s));
                const size_t count = 1 + rng.NextBounded(20);
                for (size_t e = 0; e < count; ++e) {
                  side.Update({static_cast<UserId>(
                                   rng.NextBounded(side.num_users())),
                               next_item++, Action::kInsert});
                }
                sketch.mutable_shard(s).MergeFrom(side);
                break;
              }
            }
          }
          ASSERT_TRUE(sketch.Flush().ok()) << context;
          planner.Refresh();
          ExpectPlannerMatchesRebuild(
              planner, sketch, context + " step=" + std::to_string(step));
        }
      }
    }
  }
}

/// Dirty tracking starts at the planner's first incremental Rebuild, not
/// at construction: ingest before it is untracked, ingest after it is
/// tracked, and the Refresh that consumes it lands on a fresh Rebuild's
/// snapshots — synchronous and pipelined, at one shard and at four.
TEST(LazyDirtyTrackingTest, FirstIncrementalRebuildStartsTracking) {
  const UserId users = 96;
  Rng rng(101);
  std::vector<Element> elements;
  for (int i = 0; i < 1600; ++i) {
    elements.push_back({static_cast<UserId>(rng.NextBounded(users)),
                        static_cast<ItemId>(i + 1), Action::kInsert});
  }
  const size_t half = elements.size() / 2;
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned ingest_threads : {0u, 2u}) {
      const std::string context = "S=" + std::to_string(shards) +
                                  " T=" + std::to_string(ingest_threads);
      ShardedVosConfig config;
      config.base = SmallConfig(1 << 12);
      config.num_shards = shards;
      config.ingest_threads = ingest_threads;
      config.batch_size = 64;
      ShardedVosSketch sketch(config, users);
      sketch.UpdateBatch(elements.data(), half);
      ASSERT_TRUE(sketch.Flush().ok()) << context;
      for (uint32_t s = 0; s < shards; ++s) {
        ASSERT_FALSE(sketch.shard(s).tracks_dirty()) << context;
      }

      QueryPlanner planner(sketch, {}, IncrementalOptions(2));
      planner.Rebuild(FirstUsers(72));
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_TRUE(sketch.shard(s).tracks_dirty()) << context;
        EXPECT_TRUE(sketch.shard(s).dirty_users().empty()) << context;
      }
      ExpectPlannerMatchesRebuild(planner, sketch, context + " rebuild");

      sketch.UpdateBatch(elements.data() + half, elements.size() - half);
      ASSERT_TRUE(sketch.Flush().ok()) << context;
      size_t dirty = 0;
      for (uint32_t s = 0; s < shards; ++s) {
        dirty += sketch.shard(s).dirty_users().size();
      }
      EXPECT_GT(dirty, 0u) << context;
      planner.Refresh();
      ExpectPlannerMatchesRebuild(planner, sketch, context + " refresh");
    }
  }
}

// ------------------------------------------------------ VosDrift batching

TEST(VosDriftBatchTest, BatchMatchesScalarBitForBit) {
  const VosConfig config = SmallConfig(1 << 14);
  VosSketch sketch = PopulatedSketch(config, 50, 40, 23);
  const VosSketch before = sketch;
  Rng rng(29);
  for (int i = 0; i < 800; ++i) {
    sketch.Update({static_cast<UserId>(rng.NextBounded(50)),
                   static_cast<ItemId>((1 << 27) + i), Action::kInsert});
  }
  const VosDrift drift(before, sketch);
  std::vector<UserId> users;
  for (UserId u = 0; u < 50; ++u) users.push_back(u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::vector<double> drifts = drift.EstimateDriftBatch(users, threads);
    const std::vector<double> stabilities =
        drift.EstimateStabilityBatch(users, threads);
    ASSERT_EQ(drifts.size(), users.size());
    for (UserId u = 0; u < 50; ++u) {
      EXPECT_EQ(drifts[u], drift.EstimateDrift(u)) << "user " << u;
      EXPECT_EQ(stabilities[u], drift.EstimateStability(u)) << "user " << u;
    }
  }
}

}  // namespace
}  // namespace vos::core
