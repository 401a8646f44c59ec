// Tests for incremental index maintenance: SimilarityIndex::RefreshDirty
// returns the next snapshot by flipping the digest bits of changed array
// cells in a copy of the last one, and must be bit-identical to a
// rebuild-only Snapshot::Build on the same sketch state —
// for every delta size (including the shared-cell contamination case,
// where updates to NON-candidate users flip bits of clean candidates'
// digests, cells flipped back to their old value, and rows owning one
// cell twice), every thread count, and across repeated refreshes. Dirty
// tracking itself starts at the first incremental Rebuild, never before,
// and a snapshot held past later epochs keeps answering as it did at its
// own epoch.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
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

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// Whether two pair lists match entry for entry, estimates bit for bit.
bool SamePairs(const std::vector<Snapshot::Pair>& a,
               const std::vector<Snapshot::Pair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].v != b[i].v || a[i].common != b[i].common ||
        a[i].jaccard != b[i].jaccard) {
      return false;
    }
  }
  return true;
}

/// Full bit-level equality of two snapshots: candidate order, per-row
/// digests, cardinality order, β, and the query results built from them.
void ExpectIndexesIdentical(const Snapshot& refreshed,
                            const Snapshot& rebuilt,
                            const std::string& context) {
  ASSERT_EQ(refreshed.candidate_count(), rebuilt.candidate_count())
      << context;
  EXPECT_EQ(refreshed.beta(), rebuilt.beta()) << context;
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
  // End-to-end: identical snapshots answer identically.
  EXPECT_TRUE(SamePairs(refreshed.AllPairsAboveReference(0.2),
                        rebuilt.AllPairsAboveReference(0.2)))
      << context;
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

/// A rebuild-only snapshot of `candidates` at the sketch's state.
SnapshotPtr Fresh(const VosSketch& sketch,
                  const std::vector<UserId>& candidates) {
  return Snapshot::Build(sketch, candidates);
}

/// Refreshes `index`, checks the result against a fresh rebuild-only
/// snapshot and returns it.
SnapshotPtr RefreshAndCheck(SimilarityIndex& index, const VosSketch& sketch,
                            const std::string& context) {
  SnapshotPtr refreshed = index.RefreshDirty();
  ExpectIndexesIdentical(*refreshed, *Fresh(sketch, refreshed->candidates()),
                         context);
  return refreshed;
}

/// Number of candidates whose digest row or cardinality differs.
size_t ChangedRows(const Snapshot& a, const Snapshot& b) {
  size_t changed = 0;
  for (const UserId u : a.candidates()) {
    const size_t p = a.RowIndexOf(u);
    const size_t q = b.RowIndexOf(u);
    if (a.row_cardinalities()[p] != b.row_cardinalities()[q] ||
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
    SimilarityIndex refreshed(sketch);
    refreshed.Rebuild(candidates, threads);
    ItemId next_item = 1 << 29;
    // Up to full churn (every candidate dirty) and back: the patch covers
    // every delta size, with no fallback to a rebuild.
    for (const double fraction : {0.0, 0.01, 0.5, 1.0, 0.01}) {
      Churn(&sketch, candidates, fraction, &next_item);
      const SnapshotPtr snapshot =
          RefreshAndCheck(refreshed, sketch,
                          "threads=" + std::to_string(threads) +
                              " fraction=" + std::to_string(fraction));
      if (fraction == 1.0) {
        EXPECT_EQ(snapshot->last_refresh_dirty_fraction(), 1.0);
      }
    }
  }
}

TEST(RefreshDirtyTest, CellFlippedBackLeavesRowsUntouched) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 40, 30, 47);
  SimilarityIndex index(sketch);
  index.Rebuild(FirstUsers(30), 1);
  // Insert then delete the same element (candidate and non-candidate):
  // each cell flips twice, so the array, every digest and every
  // cardinality end where they started although both users are dirty.
  for (const UserId u : {UserId{4}, UserId{35}}) {
    sketch.Update({u, ItemId{1} << 29, Action::kInsert});
    sketch.Update({u, ItemId{1} << 29, Action::kDelete});
  }
  ASSERT_TRUE(sketch.IsDirty(4));
  EXPECT_EQ(RefreshAndCheck(index, sketch, "net-zero cell flips")
                ->last_refresh_dirty_fraction(),
            0.0);
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
  SimilarityIndex index(sketch);
  index.Rebuild(FirstUsers(24), 2);
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
  SimilarityIndex index(sketch);
  index.Rebuild(candidates, 1);
  const SnapshotPtr before = Fresh(sketch, candidates);
  sketch.Update({30, item, Action::kInsert});
  for (const UserId u : candidates) ASSERT_FALSE(sketch.IsDirty(u));
  const SnapshotPtr after =
      RefreshAndCheck(index, sketch, "contamination flip");
  const size_t changed = ChangedRows(*before, *after);
  EXPECT_GT(changed, 0u);
  EXPECT_EQ(after->last_refresh_dirty_fraction(), changed / 20.0);
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
  SimilarityIndex index(sketch);
  SnapshotPtr snapshot = index.Rebuild(FirstUsers(30), 2);
  // Empty users 0..9 in two steps; a zero-cardinality row sorts first.
  for (const size_t keep : {size_t{10}, size_t{0}}) {
    for (UserId u = 0; u < 10; ++u) {
      for (; items[u].size() > keep; items[u].pop_back()) {
        sketch.Update({u, items[u].back(), Action::kDelete});
      }
    }
    snapshot =
        RefreshAndCheck(index, sketch, "deletions to " + std::to_string(keep));
  }
  EXPECT_EQ(snapshot->row_cardinalities()[0], 0u);
}

/// Seeded operation sequence: many refreshes whose deltas range from one
/// element to more than the whole stream, mixing inserts and deletes of
/// live elements from candidates and non-candidates. After every refresh
/// the patched snapshot must equal a fresh rebuild-only one, and its
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
  SimilarityIndex index(sketch);
  SnapshotPtr previous = index.Rebuild(candidates, 2);
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
    SnapshotPtr next = RefreshAndCheck(index, sketch, context);
    EXPECT_EQ(next->last_refresh_dirty_fraction(),
              static_cast<double>(ChangedRows(*previous, *next)) /
                  candidates.size())
        << context;
    previous = std::move(next);
  }
}

TEST(RefreshDirtyTest, NoChangesIsANoOpSnapshot) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 40, 50, 9);
  SimilarityIndex index(sketch);
  const auto before =
      index.Rebuild(FirstUsers(40), 1)->AllPairsAboveReference(0.1);
  // Nothing changed since Rebuild.
  const auto after = index.RefreshDirty()->AllPairsAboveReference(0.1);
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
  SimilarityIndex refreshed(sketch);
  refreshed.Rebuild(FirstUsers(30), 1);
  for (ItemId item = 0; item < 500; ++item) {
    sketch.Update({7, static_cast<ItemId>((1 << 27) + item),
                   Action::kInsert});
  }
  RefreshAndCheck(refreshed, sketch, "cardinality jump");
}

// RefreshDirty re-sorts only the rows whose cardinality changed and merges
// them into the old order. Each case below is checked against a fresh
// Rebuild (a full sort) by RefreshAndCheck.

/// Gives `user` `count` fresh items (count > 0) or deletes its last
/// -count ones.
void AddItems(VosSketch* sketch, std::vector<std::vector<ItemId>>* items,
              UserId user, int count, ItemId* next_item) {
  for (; count > 0; --count) {
    (*items)[user].push_back((*next_item)++);
    sketch->Update({user, (*items)[user].back(), Action::kInsert});
  }
  for (; count < 0; ++count) {
    sketch->Update({user, (*items)[user].back(), Action::kDelete});
    (*items)[user].pop_back();
  }
}

/// The candidate users in matrix-row order.
std::vector<UserId> RowOrder(const SnapshotPtr& index) {
  std::vector<UserId> order;
  for (size_t p = 0; p < index->candidate_count(); ++p) {
    order.push_back(index->candidates()[index->sorted_to_candidate(p)]);
  }
  return order;
}

TEST(RefreshDirtyTest, MergedRowsBreakCardinalityTiesByCandidateIndex) {
  VosSketch sketch(SmallConfig(), 12);
  std::vector<std::vector<ItemId>> items(12);
  ItemId next_item = 1;
  for (UserId u = 0; u < 10; ++u) AddItems(&sketch, &items, u, 5, &next_item);
  // Candidate index i holds user 9 − i, so index order is not user order.
  const std::vector<UserId> candidates = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  SimilarityIndex index(sketch);
  EXPECT_EQ(RowOrder(index.Rebuild(candidates, 1)), candidates);  // all tie

  // Users 3 and 7 tie at 6 with each other, user 8 drops to 4.
  AddItems(&sketch, &items, 3, 1, &next_item);
  AddItems(&sketch, &items, 7, 1, &next_item);
  AddItems(&sketch, &items, 8, -1, &next_item);
  EXPECT_EQ(RowOrder(RefreshAndCheck(index, sketch,
                                     "moved rows tie with each other")),
            (std::vector<UserId>{8, 9, 6, 5, 4, 2, 1, 0, 7, 3}));

  // User 3 rejoins the tie at 5 between users 4 and 2, user 8 too (after
  // user 9, by its index 1); user 0 moves up to tie with 7, after it.
  AddItems(&sketch, &items, 3, -1, &next_item);
  AddItems(&sketch, &items, 8, 1, &next_item);
  AddItems(&sketch, &items, 0, 1, &next_item);
  EXPECT_EQ(RowOrder(RefreshAndCheck(index, sketch,
                                     "moved rows tie with unmoved rows")),
            (std::vector<UserId>{9, 8, 6, 5, 4, 3, 2, 1, 7, 0}));
}

TEST(RefreshDirtyTest, RowMovesFromFirstToLastAndBack) {
  VosSketch sketch(SmallConfig(), 24);
  std::vector<std::vector<ItemId>> items(24);
  ItemId next_item = 1;
  for (UserId u = 0; u < 20; ++u) {
    AddItems(&sketch, &items, u, 3 + static_cast<int>(u), &next_item);
  }
  SimilarityIndex index(sketch);
  ASSERT_EQ(RowOrder(index.Rebuild(FirstUsers(20), 1)).front(), 0u);
  AddItems(&sketch, &items, 0, 40, &next_item);
  const std::vector<UserId> order =
      RowOrder(RefreshAndCheck(index, sketch, "first row to last"));
  EXPECT_EQ(order.back(), 0u);
  EXPECT_EQ(order.front(), 1u);
  AddItems(&sketch, &items, 0, -40, &next_item);
  EXPECT_EQ(RowOrder(RefreshAndCheck(index, sketch, "last row back to first")),
            FirstUsers(20));
}

TEST(RefreshDirtyTest, EveryRowOrNoRowChangesCardinality) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 40, 20, 101);
  std::vector<std::vector<ItemId>> items(40);
  ItemId next_item = 1 << 29;
  const std::vector<UserId> candidates = FirstUsers(30);
  SimilarityIndex index(sketch);
  SnapshotPtr snapshot = index.Rebuild(candidates, 2);
  // Every candidate gains a different number of items, reversing the
  // order of the first rows; then all lose them again.
  for (const int sign : {1, -1}) {
    for (const UserId u : candidates) {
      AddItems(&sketch, &items, u, sign * static_cast<int>(30 - u),
               &next_item);
    }
    snapshot = RefreshAndCheck(
        index, sketch, sign > 0 ? "every row gains" : "every row loses");
    EXPECT_EQ(snapshot->last_refresh_dirty_fraction(), 1.0);
  }
  // No cardinality changes: nothing at all, then only a non-candidate's
  // updates (the digests may change, the order may not).
  const std::vector<UserId> order = RowOrder(snapshot);
  EXPECT_EQ(RefreshAndCheck(index, sketch, "no change")
                ->last_refresh_dirty_fraction(),
            0.0);
  AddItems(&sketch, &items, 35, 25, &next_item);
  EXPECT_EQ(RowOrder(RefreshAndCheck(index, sketch,
                                     "non-candidate updates only")),
            order);
}

TEST(RefreshDirtyTest, ZeroOneAndTwoCandidates) {
  for (const UserId n : {UserId{0}, UserId{1}, UserId{2}}) {
    const std::string context = "n=" + std::to_string(n);
    VosSketch sketch = PopulatedSketch(SmallConfig(), 6, 10, 103 + n);
    std::vector<std::vector<ItemId>> items(6);
    ItemId next_item = 1 << 29;
    SimilarityIndex index(sketch);
    index.Rebuild(FirstUsers(n), 1);
    RefreshAndCheck(index, sketch, context + " empty delta");
    // User 0 overtakes user 1 and falls back; user 5 only contaminates.
    for (const int delta : {30, -30, 1}) {
      AddItems(&sketch, &items, 0, delta, &next_item);
      AddItems(&sketch, &items, 5, 3, &next_item);
      RefreshAndCheck(index, sketch,
                      context + " delta=" + std::to_string(delta));
    }
  }
}

/// The inverse index recomputed by brute force: every digest bit's flat
/// index i·k + j, tagged with its cell's in-word offset (CellOf & 63) in
/// the top 6 bits, under the array word of its cell, ascending per word.
void ExpectInverseIndexMatchesOracle(const SimilarityIndex& index,
                                     const std::vector<UserId>& candidates,
                                     const VosSketch& sketch,
                                     const std::string& context) {
  const uint32_t k = sketch.config().k;
  std::vector<std::vector<uint32_t>> owners((sketch.config().m + 63) / 64);
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (uint32_t j = 0; j < k; ++j) {
      const uint64_t cell = sketch.CellOf(candidates[i], j);
      owners[cell >> 6].push_back(static_cast<uint32_t>(
          (cell & 63) << 26 | (i * k + j)));
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
/// refresh sequence must equal a fresh single-threaded incremental
/// Rebuild — inverse index included.
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
        SimilarityIndex index(sketch);
        SnapshotPtr snapshot = index.Rebuild(candidates, threads);
        ExpectInverseIndexMatchesOracle(index, candidates, sketch, context);
        for (int step = 0; step <= 4; ++step) {
          if (step > 0) {
            for (int e = 0; e < 40 * step; ++e) {
              const UserId user = active[rng.NextBounded(active.size())];
              const ItemId item = next_item++;
              sketch.Update({user, item, Action::kInsert});
              if (e % 4 == 0) sketch.Update({user, item, Action::kDelete});
            }
            snapshot = index.RefreshDirty();
          }
          // The reference reads a copy: its Rebuild must not consume the
          // dirty set the refreshed index drains next.
          const VosSketch copy = sketch;
          SimilarityIndex fresh(copy);
          const std::string at = context + " step=" + std::to_string(step);
          ExpectIndexesIdentical(*snapshot, *fresh.Rebuild(candidates, 1), at);
          EXPECT_EQ(index.inverse_index_offsets(),
                    fresh.inverse_index_offsets())
              << at;
          EXPECT_EQ(index.inverse_index_entries(),
                    fresh.inverse_index_entries())
              << at;
        }
      }
    }
  }
}

/// The incremental index holds cells as uint32 and flat digest-bit
/// indices in the 26 bits below each entry's 6-bit offset tag: it fits up
/// to m = 2³²−1 cells and candidates·k = 2²⁶ bits.
TEST(IncrementalRebuildTest, FitsAtTheUint32Limits) {
  constexpr uint64_t kMax = 0xffffffff;
  constexpr size_t kFlat = size_t{1} << 26;
  EXPECT_TRUE(SimilarityIndex::IncrementalFits(kMax, 1, kFlat));
  EXPECT_FALSE(SimilarityIndex::IncrementalFits(kMax + 1, 1, 1));
  EXPECT_FALSE(SimilarityIndex::IncrementalFits(1 << 16, 1, kFlat + 1));
  EXPECT_TRUE(SimilarityIndex::IncrementalFits(1 << 16, 6400, 10485));
  EXPECT_FALSE(SimilarityIndex::IncrementalFits(1 << 16, 6400, 10486));
  EXPECT_TRUE(SimilarityIndex::IncrementalFits(1 << 16, 1 << 13, 1 << 13));
  EXPECT_FALSE(SimilarityIndex::IncrementalFits(1 << 16, 65536, 65536));
  EXPECT_TRUE(SimilarityIndex::IncrementalFits(0, 0, 0));
}

/// The refresh and the Rebuild's fine sort split flat = i·k + j with a
/// reciprocal, not a divide: digest widths that are not powers of two
/// (k = 1 included) must still give the brute-force inverse index and
/// refresh to a fresh Rebuild.
TEST(RefreshDirtyTest, DigestWidthsOffPowersOfTwo) {
  for (const uint32_t k : {1u, 63u, 100u, 1000u}) {
    const std::string context = "k=" + std::to_string(k);
    VosConfig config = SmallConfig();
    config.k = k;
    VosSketch sketch = PopulatedSketch(config, 40, 20, 107);
    SimilarityIndex index(sketch);
    index.Rebuild(FirstUsers(30), 2);
    ExpectInverseIndexMatchesOracle(index, FirstUsers(30), sketch, context);
    ItemId next_item = 1 << 29;
    for (const double fraction : {0.1, 1.0}) {
      Churn(&sketch, FirstUsers(30), fraction, &next_item);
      RefreshAndCheck(index, sketch,
                      context + " fraction=" + std::to_string(fraction));
    }
  }
}

/// A builder has nothing to patch before its first Rebuild.
TEST(RefreshDirtyDeathTest, RefreshBeforeRebuildAborts) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 10, 10, 17);
  SimilarityIndex index(sketch);
  EXPECT_DEATH(index.RefreshDirty(), "before the first Rebuild");
}

/// A sketch has one incremental consumer. Two incremental indexes on it
/// clear each other's dirty set; here user 4 gains two items in the same
/// ψ bucket, so the array is unchanged and only the dirty set records
/// that n₄ grew. Whichever index refreshes after the other cleared would
/// miss it and return a stale snapshot, so RefreshDirty aborts instead.
TEST(RefreshDirtyDeathTest, SecondIncrementalConsumerAborts) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 10, 10, 17);
  const std::vector<UserId> candidates = FirstUsers(8);
  SimilarityIndex first(sketch);
  first.Rebuild(candidates, 1);
  SimilarityIndex second(sketch);
  second.Rebuild(candidates, 1);

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
  SimilarityIndex only(sketch);
  only.Rebuild(candidates, 1);
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
  EXPECT_EQ(sketch.dirty_user_count(), 0u);
  EXPECT_EQ(sketch.BookkeepingBits(), 30u * 32u);  // cardinalities only
  sketch.StartDirtyTracking();
  EXPECT_TRUE(sketch.tracks_dirty());
  // Plus epochs and one summary word (64 array words), nothing flagged:
  // the updates before the start are not recorded.
  EXPECT_EQ(sketch.BookkeepingBits(), 30u * 64u + 64u);
  EXPECT_EQ(FlaggedWords(sketch), 0u);
  EXPECT_EQ(sketch.dirty_user_count(), 0u);
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
      "decoded", &consumed);
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
  SimilarityIndex index(sketch);
  index.Rebuild(candidates, 1);
  ItemId next_item = 1 << 29;
  for (const UserId u : {UserId{1}, UserId{12}, UserId{35}}) {
    sketch.Update({u, next_item++, Action::kInsert});
  }
  const VosSketch copy = sketch;
  EXPECT_EQ(copy.changed_words(), sketch.changed_words());
  EXPECT_EQ(FlaggedWords(copy), FlaggedWords(sketch));
  EXPECT_GT(FlaggedWords(copy), 0u);
  SimilarityIndex on_copy(copy);
  on_copy.Rebuild(candidates, 1);  // clears the copy's dirty set and summary
  EXPECT_EQ(FlaggedWords(copy), 0u);
  EXPECT_GT(FlaggedWords(sketch), 0u);
  RefreshAndCheck(index, sketch, "original after the copy was cleared");
}

/// Checks every shard snapshot of `planner` against a fresh rebuild-only
/// snapshot of its candidates: matrix rows, row cardinalities, β (all via
/// ExpectIndexesIdentical) and RowIndexOf for every candidate.
void ExpectPlannerMatchesRebuild(const QueryPlanner& planner,
                                 const ShardedVosSketch& sketch,
                                 const std::string& context) {
  for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
    const Snapshot& index = planner.shard_index(s);
    const SnapshotPtr fresh = Fresh(sketch.shard(s), index.candidates());
    const std::string where = context + " shard " + std::to_string(s);
    ExpectIndexesIdentical(index, *fresh, where);
    for (const UserId u : index.candidates()) {
      ASSERT_EQ(index.RowIndexOf(u), fresh->RowIndexOf(u))
          << where << " local user " << u;
    }
  }
}

/// Randomized differential test of the refresh path: seeded sequences
/// of inserts, deletes of live elements and insert-delete pairs (cells
/// flipped back), in stretches of 0 to a few hundred operations between
/// QueryPlanner::Refresh calls (the first one captures, every later one
/// patches). After every refresh each shard snapshot must equal a fresh
/// rebuild-only one.
TEST(RefreshDirtyDifferentialTest, RandomOpsMatchRebuild) {
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
        QueryPlanner planner(sketch, {}, QueryOptions{threads});
        planner.Rebuild(FirstUsers(72));
        planner.Refresh();
        ASSERT_TRUE(planner.incremental()) << context;

        for (int step = 0; step < 24; ++step) {
          const size_t ops = rng.NextBounded(4) == 0 ? rng.NextBounded(300)
                                                     : rng.NextBounded(6);
          for (size_t op = 0; op < ops; ++op) {
            switch (rng.NextBounded(7)) {
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
              default: {
                const Element e{static_cast<UserId>(rng.NextBounded(users)),
                                next_item++, Action::kInsert};
                sketch.Update(e);
                sketch.Update({e.user, e.item, Action::kDelete});
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

/// Dirty tracking starts at the first incremental Rebuild — the one the
/// planner's first Refresh of a set runs — not at construction or at the
/// planner's rebuild-only Rebuild: ingest before it is untracked, ingest
/// after it is tracked, and the Refresh that consumes it lands on fresh
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
      ShardedVosSketch sketch(config, users);
      sketch.UpdateBatch(elements.data(), half);
      ASSERT_TRUE(sketch.Flush().ok()) << context;
      for (uint32_t s = 0; s < shards; ++s) {
        ASSERT_FALSE(sketch.shard(s).tracks_dirty()) << context;
      }

      QueryPlanner planner(sketch, {}, QueryOptions{2});
      planner.Rebuild(FirstUsers(72));
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_FALSE(sketch.shard(s).tracks_dirty()) << context;
      }
      planner.Refresh();
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_TRUE(sketch.shard(s).tracks_dirty()) << context;
        EXPECT_EQ(sketch.shard(s).dirty_user_count(), 0u) << context;
      }
      ExpectPlannerMatchesRebuild(planner, sketch, context + " capture");

      sketch.UpdateBatch(elements.data() + half, elements.size() - half);
      ASSERT_TRUE(sketch.Flush().ok()) << context;
      size_t dirty = 0;
      for (uint32_t s = 0; s < shards; ++s) {
        dirty += sketch.shard(s).dirty_user_count();
      }
      EXPECT_GT(dirty, 0u) << context;
      planner.Refresh();
      ExpectPlannerMatchesRebuild(planner, sketch, context + " refresh");
    }
  }
}

// ------------------------------------------------------- held snapshots

/// `count` elements over `users` users: inserts of fresh items, and every
/// fourth one deletes an item inserted earlier, so epochs churn both ways.
std::vector<Element> ChurnStream(UserId users, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> elements;
  std::vector<Element> live;
  for (ItemId item = 1; elements.size() < count; ++item) {
    if (item % 4 == 0 && !live.empty()) {
      const size_t victim = rng.NextBounded(live.size());
      elements.push_back({live[victim].user, live[victim].item,
                          Action::kDelete});
      live[victim] = live.back();
      live.pop_back();
      continue;
    }
    live.push_back({static_cast<UserId>(rng.NextBounded(users)), item,
                    Action::kInsert});
    elements.push_back(live.back());
  }
  return elements;
}

/// A published snapshot is never written. The planner's snapshots of
/// four epochs — a new set's rebuild-only one, the first Refresh's
/// capture and two patching Refreshes, with ingest before each — are all
/// held to the end. Each must then still give the β, row cardinalities
/// and AllPairsAboveReference recorded at its own epoch, and equal a
/// rebuild-only snapshot taken at that epoch.
TEST(HeldSnapshotTest, SnapshotsOfEarlierEpochsSurviveLaterOnes) {
  const UserId users = 96;
  const std::vector<Element> elements = ChurnStream(users, 3200, 113);
  const size_t quarter = elements.size() / 4;
  for (const uint32_t shards : {1u, 4u}) {
    for (const unsigned ingest_threads : {0u, 2u}) {
      const std::string context = "S=" + std::to_string(shards) +
                                  " T=" + std::to_string(ingest_threads);
      ShardedVosConfig config;
      config.base = SmallConfig(1 << 12);
      config.num_shards = shards;
      config.ingest_threads = ingest_threads;
      ShardedVosSketch sketch(config, users);
      QueryPlanner planner(sketch, {}, QueryOptions{2});
      struct Held {
        SnapshotPtr snapshot;
        double beta;
        std::vector<uint32_t> cards;
        std::vector<Snapshot::Pair> pairs;
        SnapshotPtr fresh;
      };
      std::vector<Held> held;  // (epoch, shard), epoch-major
      for (size_t epoch = 0; epoch < 4; ++epoch) {
        sketch.UpdateBatch(elements.data() + epoch * quarter, quarter);
        ASSERT_TRUE(sketch.Flush().ok()) << context;
        if (epoch == 0) {
          planner.Rebuild(FirstUsers(72));
        } else {
          planner.Refresh();
        }
        ASSERT_EQ(planner.incremental(), epoch > 0) << context;
        for (uint32_t s = 0; s < shards; ++s) {
          const SnapshotPtr& snapshot = planner.shard_snapshot(s);
          held.push_back({snapshot, snapshot->beta(),
                          snapshot->row_cardinalities(),
                          snapshot->AllPairsAboveReference(0.1),
                          Fresh(sketch.shard(s), snapshot->candidates())});
        }
      }
      // The epochs differ, so an overwritten snapshot would show.
      EXPECT_NE(held.front().beta, held[3 * shards].beta) << context;
      for (size_t h = 0; h < held.size(); ++h) {
        const std::string at = context + " epoch " +
                               std::to_string(h / shards) + " shard " +
                               std::to_string(h % shards);
        const Snapshot& snapshot = *held[h].snapshot;
        EXPECT_EQ(snapshot.beta(), held[h].beta) << at;
        EXPECT_EQ(snapshot.row_cardinalities(), held[h].cards) << at;
        EXPECT_TRUE(SamePairs(snapshot.AllPairsAboveReference(0.1),
                              held[h].pairs))
            << at;
        ExpectIndexesIdentical(snapshot, *held[h].fresh, at);
      }
    }
  }
}

/// A reader thread holds the planner's snapshots of one epoch and keeps
/// recomputing their AllPairsAboveReference while the main thread
/// ingests through the shard workers, flushes and Refreshes, publishing
/// new snapshots. The reader's answers stay those recorded before the
/// ingest. Runs under TSan in CI.
TEST(HeldSnapshotTest, ReaderKeepsItsSnapshotWhileRefreshPublishes) {
  const UserId users = 96;
  const std::vector<Element> elements = ChurnStream(users, 3200, 127);
  const size_t quarter = elements.size() / 4;
  for (const uint32_t shards : {1u, 4u}) {
    const std::string context = "S=" + std::to_string(shards);
    ShardedVosConfig config;
    config.base = SmallConfig(1 << 12);
    config.num_shards = shards;
    config.ingest_threads = 2;
    ShardedVosSketch sketch(config, users);
    sketch.UpdateBatch(elements.data(), quarter);
    ASSERT_TRUE(sketch.Flush().ok()) << context;
    QueryPlanner planner(sketch, {}, QueryOptions{2});
    planner.Rebuild(FirstUsers(72));
    planner.Refresh();  // capture: the next Refreshes patch
    std::vector<SnapshotPtr> held;
    std::vector<std::vector<Snapshot::Pair>> expected;
    for (uint32_t s = 0; s < shards; ++s) {
      held.push_back(planner.shard_snapshot(s));
      expected.push_back(held.back()->AllPairsAboveReference(0.1));
    }

    std::atomic<bool> done{false};
    std::atomic<bool> mismatch{false};
    std::atomic<size_t> rounds{0};
    std::thread reader([&] {
      do {
        for (size_t s = 0; s < held.size(); ++s) {
          if (!SamePairs(held[s]->AllPairsAboveReference(0.1), expected[s])) {
            mismatch.store(true, std::memory_order_relaxed);
          }
        }
        rounds.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
    for (size_t epoch = 1; epoch < 4; ++epoch) {
      sketch.UpdateBatch(elements.data() + epoch * quarter, quarter);
      EXPECT_TRUE(sketch.Flush().ok()) << context;  // the reader is live
      planner.Refresh();
      EXPECT_NE(planner.shard_snapshot(0), held[0]) << context;
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_FALSE(mismatch.load(std::memory_order_relaxed)) << context;
    EXPECT_GT(rounds.load(std::memory_order_relaxed), 0u) << context;
    ExpectPlannerMatchesRebuild(planner, sketch, context + " final");
  }
}

}  // namespace
}  // namespace vos::core
