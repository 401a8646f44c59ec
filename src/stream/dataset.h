// Dataset registry: named, reproducible stand-ins for the paper's datasets.
//
// The paper evaluates on crawled snapshots of YouTube, Flickr, Orkut and
// LiveJournal (Mislove et al., IMC'07). Those crawls are not redistributable
// and are far beyond laptop scale (up to 223M edges). The registry provides
// deterministic synthetic datasets — `youtube_s`, `flickr_s`, `orkut_s`,
// `livejournal_s` — that preserve what the evaluation actually exercises:
// heavy-tailed cardinalities, item overlap among high-cardinality users, and
// the relative size ordering of the four datasets (YouTube < Flickr <
// LiveJournal < Orkut by edges). Deletion periods are scaled so each stream
// experiences ≈2.4 massive deletions, matching 4.9M edges / 2M period on the
// real YouTube graph.
//
// `toy` and `unit` presets support examples and fast tests.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "stream/bipartite_generator.h"
#include "stream/dynamic_stream.h"
#include "stream/graph_stream.h"

namespace vos::stream {

/// Full recipe for one named dataset: static graph + dynamic stream model.
struct DatasetSpec {
  std::string name;
  BipartiteGraphConfig graph;
  DynamicStreamConfig dynamics;
};

/// Returns the spec for `name`, or NotFound with the list of valid names.
StatusOr<DatasetSpec> GetDatasetSpec(const std::string& name);

/// All registered dataset names, evaluation-scale first.
std::vector<std::string> ListDatasets();

/// The four paper datasets (in the paper's order).
std::vector<std::string> PaperDatasets();

/// Generates the fully dynamic stream for a spec. Deterministic.
GraphStream GenerateDataset(const DatasetSpec& spec);

/// Convenience: GetDatasetSpec + GenerateDataset.
StatusOr<GraphStream> GenerateDatasetByName(const std::string& name);

/// Applies a uniform scale factor to a spec (scales users, items, edges and
/// deletion period by `factor`, keeping exponents). Used by benches'
/// `--scale` flag to trade runtime for fidelity.
DatasetSpec ScaleSpec(const DatasetSpec& spec, double factor);

}  // namespace vos::stream
