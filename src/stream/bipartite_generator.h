// Synthetic bipartite graph generation with heavy-tailed degrees.
//
// Stands in for the crawled OSN datasets of Mislove et al. (IMC'07) used in
// the paper's evaluation, which are not redistributable (stream/dataset.h
// lists the presets that replace them). The construction is
// degree-targeted:
//
//   1. User u (rank-ordered) gets a target degree d_u ∝ (u+1)^{−user_zipf},
//      scaled so Σ d_u equals num_edges exactly and capped at
//      max_fill_fraction·num_items.
//   2. Each user samples d_u *distinct* items from a Zipf(item_zipf)
//      popularity distribution (rejection on duplicates, with a
//      permutation-walk fallback so saturated heavy users always finish).
//
// This reproduces the two properties the paper's evaluation rests on:
//   * a head of users with very large item sets (the paper tracks the
//     top-5000 users by cardinality and "mainly focuses on similarity
//     estimation for users with a large number of subscribed items"), and
//   * large item overlaps among those users — popular head items are held
//     by nearly every heavy user, so tracked pairs have common-item counts
//     in the tens to hundreds, as in the crawled graphs.

#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "stream/element.h"

namespace vos::stream {

/// Parameters of the synthetic bipartite graph.
struct BipartiteGraphConfig {
  UserId num_users = 1000;
  ItemId num_items = 1000;
  /// Total number of distinct edges to generate (hit exactly).
  size_t num_edges = 10000;
  /// Zipf exponent of the user degree sequence (0 = uniform degrees).
  double user_zipf = 0.75;
  /// Zipf exponent of item popularity (0 = uniform).
  double item_zipf = 0.95;
  /// Cap on any single user's degree, as a fraction of num_items.
  double max_fill_fraction = 0.5;
  uint64_t seed = 1;
};

/// Generates exactly `config.num_edges` distinct user–item edges.
///
/// Deterministic given `config.seed`. Aborts (VOS_CHECK) if the requested
/// edge count cannot be placed under the degree cap.
std::vector<Edge> GenerateBipartiteEdges(const BipartiteGraphConfig& config);

/// The degree sequence the generator will target for `config` (before item
/// sampling). Exposed for tests and capacity planning: Σ = num_edges.
std::vector<uint32_t> TargetDegrees(const BipartiteGraphConfig& config);

}  // namespace vos::stream
