// Degree-distribution and churn statistics of a graph stream.
//
// Used two ways: (1) dataset presets are validated against the
// heavy-tailed shape the evaluation depends on (tests), and (2) the CLI's
// `inspect` command prints these for any stream file, so readers can
// compare our synthetic stand-ins against the crawled originals' published
// statistics.

#pragma once

#include <cstdint>
#include <vector>

#include "stream/graph_stream.h"

namespace vos::stream {

/// Quantiles and extremes of a degree sequence.
struct DegreeSummary {
  size_t count = 0;   ///< entities with degree ≥ 1
  uint64_t max = 0;
  uint64_t p99 = 0;
  uint64_t p90 = 0;
  uint64_t median = 0;
  double mean = 0.0;

  /// max/mean — a quick heavy-tail indicator (≫1 for Zipf-like sequences).
  double SkewRatio() const { return mean == 0.0 ? 0.0 : max / mean; }
};

/// Full stream profile.
struct StreamProfile {
  StreamStats stats;           ///< element counts (insert/delete/final)
  DegreeSummary user_degrees;  ///< |S_u| at end of stream, over live users
  DegreeSummary item_degrees;  ///< item popularity at end of stream
  /// Largest number of live edges at any prefix of the stream.
  size_t peak_edges = 0;
};

/// Summarizes a degree sequence (zeros excluded).
DegreeSummary SummarizeDegrees(std::vector<uint64_t> degrees);

/// Replays the stream once and profiles it. O(size) time, O(live edges)
/// memory.
StreamProfile ProfileStream(const GraphStream& stream);

}  // namespace vos::stream
