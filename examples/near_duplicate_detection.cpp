// Streaming near-duplicate detection (the dedup application of the paper's
// introduction, cf. SILO [1]).
//
// Documents are "users", shingle hashes are "items". Documents arrive and
// then age: every expiry round, 15% of the globally live features age out
// of the store and disappear from every document holding them — feature
// *deletions*, exactly the fully dynamic setting where min-wise digests go
// stale. Global expiry scales every pair's intersection and union by the
// same factor, so the true Jaccard stays ~constant: the correct answer
// remains "these documents are still near-duplicates"; the question is
// whether a digest keeps saying so:
//
//   * MinHash registers whose sampled feature expired go empty and, with no
//     fresh insertions to refill them, silently stop matching — recall
//     collapses round by round (the §III bias).
//   * VOS flips the same parity bit on deletion as on insertion, so its
//     estimate tracks the true (stable) Jaccard throughout.
//
// An exact store runs alongside purely to score precision/recall; a real
// deployment keeps only the sketches.
//
// Run: ./build/examples/near_duplicate_detection

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "baselines/minhash.h"
#include "common/random.h"
#include "core/similarity_index.h"
#include "core/vos_method.h"
#include "exact/exact_store.h"

namespace {

using vos::Rng;
using vos::stream::Action;
using vos::stream::Element;
using vos::stream::ItemId;
using vos::stream::UserId;

constexpr uint32_t kDocs = 60;  // 20 base docs × 3 near-duplicate versions
constexpr uint32_t kFeaturesPerDoc = 600;
constexpr double kThreshold = 0.5;  // near-duplicate if J ≥ 0.5

/// Applies `e` to every index structure at once.
template <typename... Sinks>
void Apply(const Element& e, Sinks&... sinks) {
  (sinks.Update(e), ...);
}

struct Quality {
  double precision;
  double recall;
  double mean_sibling_j;  // mean estimated J over the true-duplicate pairs
};

Quality ScoreFromEstimates(const std::vector<std::vector<double>>& estimate,
                           const vos::exact::ExactStore& exact) {
  size_t tp = 0, fp = 0, fn = 0;
  double sibling_j = 0;
  size_t siblings = 0;
  for (UserId a = 0; a < kDocs; ++a) {
    for (UserId b = a + 1; b < kDocs; ++b) {
      const bool truth = exact.Jaccard(a, b) >= kThreshold;
      const bool flagged = estimate[a][b] >= kThreshold;
      tp += truth && flagged;
      fp += !truth && flagged;
      fn += truth && !flagged;
      if (a / 3 == b / 3) {
        sibling_j += estimate[a][b];
        ++siblings;
      }
    }
  }
  return {tp + fp == 0 ? 1.0 : static_cast<double>(tp) / (tp + fp),
          tp + fn == 0 ? 1.0 : static_cast<double>(tp) / (tp + fn),
          sibling_j / siblings};
}

template <typename Method>
Quality Score(const Method& method, const vos::exact::ExactStore& exact) {
  std::vector<std::vector<double>> estimate(kDocs,
                                            std::vector<double>(kDocs, 0.0));
  for (UserId a = 0; a < kDocs; ++a) {
    for (UserId b = a + 1; b < kDocs; ++b) {
      estimate[a][b] = method.EstimatePair(a, b).jaccard;
    }
  }
  return ScoreFromEstimates(estimate, exact);
}

/// VOS is scored through the batch query engine: one Rebuild snapshots all
/// document digests, one thread-partitioned AllPairsAbove sweep yields
/// every pair's estimate (τ = 0 keeps all pairs, estimates are clamped to
/// [0, 1]) — no per-pair sketch reconstruction.
Quality ScoreVosBatch(vos::core::SimilarityIndex& index,
                      const std::vector<UserId>& docs,
                      const vos::exact::ExactStore& exact) {
  index.Rebuild(docs);
  std::vector<std::vector<double>> estimate(kDocs,
                                            std::vector<double>(kDocs, 0.0));
  for (const auto& pair : index.AllPairsAbove(0.0)) {
    estimate[std::min(pair.u, pair.v)][std::max(pair.u, pair.v)] =
        pair.jaccard;
  }
  return ScoreFromEstimates(estimate, exact);
}

}  // namespace

int main() {
  Rng rng(7);

  vos::core::VosConfig vos_config;
  vos_config.k = 8192;
  vos_config.m = uint64_t{1} << 21;
  vos::core::VosMethod vos_method(vos_config, kDocs);

  // Equal-memory MinHash digest: 2^21 bits / 60 docs / 32-bit registers
  // ≈ 1092 registers per document.
  vos::baseline::MinHashConfig mh_config;
  mh_config.k = 1092;
  vos::baseline::MinHash minhash(mh_config, kDocs, /*num_items=*/1u << 31);

  vos::exact::ExactStore exact(kDocs);

  // Phase 1 — ingest: base docs and their near-duplicate variants. Variant
  // v of base b shares 85% of its features with its siblings
  // (true sibling J = 0.85/1.15 ≈ 0.74).
  for (uint32_t base = 0; base < kDocs / 3; ++base) {
    for (uint32_t variant = 0; variant < 3; ++variant) {
      const UserId doc = base * 3 + variant;
      for (uint32_t f = 0; f < kFeaturesPerDoc; ++f) {
        const bool shared = f < kFeaturesPerDoc * 85 / 100;
        const ItemId feature =
            shared ? base * 100000 + f
                   : base * 100000 + 50000 + variant * 10000 + f;
        Apply({doc, feature, Action::kInsert}, vos_method, minhash, exact);
      }
    }
  }
  std::vector<UserId> docs;
  for (UserId doc = 0; doc < kDocs; ++doc) docs.push_back(doc);
  // MakeIndex builds the snapshot with the method's QueryOptions, so
  // factory-style knobs (tile_rows) would govern this scan.
  const auto vos_index = vos_method.MakeIndex(docs);

  auto report = [&](const char* phase) {
    const Quality vq = ScoreVosBatch(*vos_index, docs, exact);
    const Quality mq = Score(minhash, exact);
    double true_j = 0;
    for (UserId a = 0; a < kDocs; a += 3) {
      true_j += exact.Jaccard(a, a + 1) + exact.Jaccard(a, a + 2) +
                exact.Jaccard(a + 1, a + 2);
    }
    true_j /= kDocs;
    std::printf("%-14s true sibling J=%.2f | VOS  J=%.2f P=%.2f R=%.2f | "
                "MinHash J=%.2f P=%.2f R=%.2f\n",
                phase, true_j, vq.mean_sibling_j, vq.precision, vq.recall,
                mq.mean_sibling_j, mq.precision, mq.recall);
  };
  report("after ingest:");

  // Phase 2 — expiry: four rounds; in each, 15% of the *globally* live
  // features age out of the store, disappearing from every document that
  // holds them (chunk expiry is a property of the chunk, not the document).
  // Global expiry scales intersection and union of every pair by the same
  // factor, so the true Jaccard stays ~0.74 — the right answer remains
  // "still near-duplicates".
  for (int round = 1; round <= 4; ++round) {
    std::unordered_set<ItemId> live;
    for (UserId doc = 0; doc < kDocs; ++doc) {
      live.insert(exact.Items(doc).begin(), exact.Items(doc).end());
    }
    std::vector<ItemId> features(live.begin(), live.end());
    std::sort(features.begin(), features.end());  // deterministic order
    rng.Shuffle(features);
    features.resize(features.size() * 15 / 100);
    const std::unordered_set<ItemId> expired(features.begin(),
                                             features.end());
    for (UserId doc = 0; doc < kDocs; ++doc) {
      std::vector<ItemId> to_delete;
      for (ItemId f : exact.Items(doc)) {
        if (expired.count(f)) to_delete.push_back(f);
      }
      for (ItemId f : to_delete) {
        Apply({doc, f, Action::kDelete}, vos_method, minhash, exact);
      }
    }
    char phase[32];
    std::snprintf(phase, sizeof(phase), "after expiry %d:", round);
    report(phase);
  }

  std::printf(
      "\nsymmetric expiry keeps the true Jaccard ~constant, but MinHash "
      "registers emptied by deletions stop matching and recall collapses; "
      "VOS absorbs every deletion exactly (one parity flip) and keeps "
      "flagging the near-duplicates.\n");
  return 0;
}
