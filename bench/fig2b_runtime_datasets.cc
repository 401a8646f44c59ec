// Reproduces Figure 2(b): sketch-update runtime across all four datasets at
// a large fixed sketch size.
//
// Paper setting: k = 10^5, full YouTube/Flickr/Orkut/LiveJournal streams.
// Expected shape: on every dataset, MinHash and RP are orders of magnitude
// slower than OPH and VOS, whose cost tracks only the stream length.
//
// Reproduction notes: k defaults to 10^4 and the measured stream is capped
// at --max-elements (default 400,000) so that all four datasets run in
// minutes on a laptop; the per-element cost (the quantity the figure's
// shape encodes) is unaffected by the cap. Each row is the median of
// repeated runs (bench_util.h TimeUntilStable; the `reps` column counts
// them). Flags: --k --max-elements --lambda --csv.

#include <cstdio>

#include "bench/bench_util.h"
#include "harness/experiment.h"

namespace vos::bench {
namespace {

/// Truncates `stream` to its first `max_elements` elements (keeps domains).
stream::GraphStream Truncate(const stream::GraphStream& stream,
                             size_t max_elements) {
  if (stream.size() <= max_elements) return stream;
  stream::GraphStream prefix(stream.name(), stream.num_users(),
                             stream.num_items());
  prefix.Reserve(max_elements);
  for (size_t t = 0; t < max_elements; ++t) prefix.Append(stream[t]);
  return prefix;
}

int Run(int argc, char** argv) {
  Flags flags = ParseFlagsOrDie(
      argc, argv, "[--k=10000] [--max-elements=400000] [--scale=1] [--csv=]");
  PrintBanner("Figure 2(b): update runtime across datasets (large k)", flags);

  const auto k = static_cast<uint32_t>(flags.GetInt("k", 10000));
  const auto max_elements =
      static_cast<size_t>(flags.GetInt("max-elements", 400000));
  const double scale = flags.GetDouble("scale", 1.0);

  const std::vector<std::string> header = {
      "dataset", "method", "elements", "seconds", "ns_per_element", "reps"};
  TablePrinter table(header);
  std::vector<std::vector<std::string>> rows;
  for (const std::string& name : stream::PaperDatasets()) {
    auto spec = stream::GetDatasetSpec(name);
    if (!spec.ok()) {
      std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    if (scale != 1.0) *spec = stream::ScaleSpec(*spec, scale);
    const stream::GraphStream full = stream::GenerateDataset(*spec);
    const stream::GraphStream measured = Truncate(full, max_elements);
    for (const std::string& method : harness::PaperMethods()) {
      harness::MethodFactoryConfig factory;
      factory.base_k = k;
      factory.lambda = flags.GetDouble("lambda", 2.0);
      factory.seed = 99;
      auto time = TimeUntilStable([&] {
        return harness::MeasureUpdateRuntime(measured, method, factory);
      });
      if (!time.ok()) {
        std::fprintf(stderr, "error: %s\n", time.status().ToString().c_str());
        return 1;
      }
      std::vector<std::string> row = {
          name, method, TablePrinter::FormatInt(measured.size()),
          TablePrinter::FormatDouble(time->seconds, 4),
          TablePrinter::FormatDouble(time->seconds * 1e9 / measured.size(), 4),
          TablePrinter::FormatInt(time->reps)};
      table.AddRow(row);
      rows.push_back(std::move(row));
    }
  }
  EmitTable(flags, table, header, rows);
  std::printf(
      "\nexpected shape: on every dataset MinHash and RP pay O(k) per "
      "element; OPH and VOS pay O(1).\n");
  return 0;
}

}  // namespace
}  // namespace vos::bench

int main(int argc, char** argv) { return vos::bench::Run(argc, argv); }
