// Side-by-side accuracy comparison of all implemented methods on one fully
// dynamic stream — a miniature of the paper's Figure 3 plus this library's
// extensions (densified OPH, HLL-union, sharded VOS).
//
// Run: ./build/examples/method_comparison [--dataset=toy] [--k=100]

#include <cstdio>

#include "common/flags.h"
#include "common/table_printer.h"
#include "harness/experiment.h"
#include "stream/dataset.h"

int main(int argc, char** argv) {
  auto flags = vos::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  auto spec = vos::stream::GetDatasetSpec(
      flags->GetString("dataset", "youtube_s"));
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  // Default to a 40%-scale YouTube stand-in: large enough degrees for the
  // paper's "users with many subscribed items" regime, small enough to run
  // in seconds.
  const vos::stream::DatasetSpec scaled =
      vos::stream::ScaleSpec(*spec, flags->GetDouble("scale", 0.4));
  const vos::stream::GraphStream stream = vos::stream::GenerateDataset(scaled);
  const auto stats = stream.ComputeStats();
  std::printf("stream %s: %zu elements (%zu+, %zu-), %zu live at end\n\n",
              stream.name().c_str(), stats.num_elements, stats.num_insertions,
              stats.num_deletions, stats.final_edges);

  vos::harness::ExperimentConfig config;
  config.top_users = 100;
  config.max_pairs = 4000;
  config.num_checkpoints = 1;
  config.factory.base_k =
      static_cast<uint32_t>(flags->GetInt("k", 100));
  config.factory.seed = 12345;

  auto result = vos::harness::RunAccuracyExperiment(
      stream, vos::harness::AllMethods(), config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("%zu tracked pairs among the top %zu users; equal memory "
              "budget 32·k·|U| bits, k=%u\n\n",
              result->tracked_pairs, result->tracked_users,
              config.factory.base_k);
  vos::TablePrinter table({"method", "AAPE (common items)", "ARMSE (Jaccard)"});
  for (const auto& mc : result->Final().methods) {
    table.AddRow({mc.method,
                  vos::TablePrinter::FormatDouble(mc.metrics.aape, 4),
                  vos::TablePrinter::FormatDouble(mc.metrics.armse, 4)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("\nVOS is the paper's method; lower is better on both.\n");
  return 0;
}
