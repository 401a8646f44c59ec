// Reproduces Figure 2(a): sketch-update runtime as the sketch size k grows.
//
// Paper setting: YouTube stream, k swept from 1 to 10^5, runtime of updating
// the sketch for every stream element, methods MinHash / OPH / RP / VOS.
// Expected shape: MinHash and RP grow linearly in k (every element touches
// all k registers); OPH and VOS stay flat (O(1) per element).
//
// Reproduction notes: the `runtime_s` preset (2,000 users) stands in for the
// full YouTube crawl so that the O(k)-memory baselines fit in RAM at large
// k; the default sweep stops at 10^4 to keep the default bench run short.
// Each row is the median of repeated runs (bench_util.h TimeUntilStable;
// the `reps` column counts them). Flags: --dataset --scale --kmax (10000)
// --lambda (2) --csv.

#include <cstdio>

#include "bench/bench_util.h"
#include "harness/experiment.h"

namespace vos::bench {
namespace {

int Run(int argc, char** argv) {
  Flags flags = ParseFlagsOrDie(
      argc, argv, "[--dataset=runtime_s] [--kmax=10000] [--lambda=2] [--csv=]");
  PrintBanner("Figure 2(a): update runtime vs sketch size k", flags);

  const stream::GraphStream stream = DatasetOrDie(flags, "runtime_s");
  const auto stats = stream.ComputeStats();
  std::printf("dataset %s: %zu elements (%zu ins / %zu del), |U|=%u |I|=%u\n\n",
              stream.name().c_str(), stats.num_elements, stats.num_insertions,
              stats.num_deletions, stream.num_users(), stream.num_items());

  const int64_t kmax = flags.GetInt("kmax", 10000);
  std::vector<uint32_t> ks;
  for (int64_t k = 1; k <= kmax; k *= 10) ks.push_back(static_cast<uint32_t>(k));

  const std::vector<std::string> header = {"k", "method", "seconds",
                                           "ns_per_element", "reps"};
  TablePrinter table(header);
  std::vector<std::vector<std::string>> rows;
  for (uint32_t k : ks) {
    for (const std::string& method : harness::PaperMethods()) {
      harness::MethodFactoryConfig factory;
      factory.base_k = k;
      factory.lambda = flags.GetDouble("lambda", 2.0);
      factory.seed = 99;
      auto time = TimeUntilStable([&] {
        return harness::MeasureUpdateRuntime(stream, method, factory);
      });
      if (!time.ok()) {
        std::fprintf(stderr, "error: %s\n", time.status().ToString().c_str());
        return 1;
      }
      std::vector<std::string> row = {
          TablePrinter::FormatInt(k), method,
          TablePrinter::FormatDouble(time->seconds, 4),
          TablePrinter::FormatDouble(time->seconds * 1e9 / stats.num_elements,
                                     4),
          TablePrinter::FormatInt(time->reps)};
      table.AddRow(row);
      rows.push_back(std::move(row));
    }
  }
  EmitTable(flags, table, header, rows);
  std::printf(
      "\nexpected shape: MinHash and RP scale linearly with k; OPH and VOS "
      "stay flat (O(1) per element).\n");
  return 0;
}

}  // namespace
}  // namespace vos::bench

int main(int argc, char** argv) { return vos::bench::Run(argc, argv); }
