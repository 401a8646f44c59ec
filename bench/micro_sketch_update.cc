// Micro-benchmarks (M2) for per-element sketch update cost — the operation
// Figure 2 times at macro scale. Measured per single Update() call on a
// prepared stream, for each method at representative sketch sizes.

#include <benchmark/benchmark.h>

#include "baselines/minhash.h"
#include "baselines/oph.h"
#include "baselines/random_pairing.h"
#include "core/sharded_vos_method.h"
#include "core/vos_sketch.h"
#include "stream/dataset.h"

namespace vos {
namespace {

using stream::GraphStream;

const GraphStream& UnitStream() {
  static const GraphStream stream = [] {
    auto s = stream::GenerateDatasetByName("unit");
    VOS_CHECK(s.ok());
    return *std::move(s);
  }();
  return stream;
}

template <typename Method>
void DriveUpdates(benchmark::State& state, Method& method) {
  const GraphStream& stream = UnitStream();
  size_t t = 0;
  // Replay the stream cyclically: one full cycle returns every set to its
  // starting state only for VOS (parity); for register methods the state
  // converges to a steady churn, which is fine for timing.
  for (auto _ : state) {
    method.Update(stream[t]);
    if (++t == stream.size()) t = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_VosUpdate(benchmark::State& state) {
  core::VosConfig config;
  config.k = static_cast<uint32_t>(state.range(0));
  config.m = 1 << 22;
  // The paper's bare O(1) update: no consumer, so no dirty tracking.
  core::VosSketch sketch(config, UnitStream().num_users());
  DriveUpdates(state, sketch);
}
BENCHMARK(BM_VosUpdate)->Arg(100)->Arg(6400)->Arg(100000);

void BM_OphUpdate(benchmark::State& state) {
  baseline::OphConfig config;
  config.k = static_cast<uint32_t>(state.range(0));
  baseline::Oph method(config, UnitStream().num_users(),
                       UnitStream().num_items());
  DriveUpdates(state, method);
}
BENCHMARK(BM_OphUpdate)->Arg(100)->Arg(6400);

void BM_MinHashUpdate(benchmark::State& state) {
  baseline::MinHashConfig config;
  config.k = static_cast<uint32_t>(state.range(0));
  baseline::MinHash method(config, UnitStream().num_users(),
                           UnitStream().num_items());
  DriveUpdates(state, method);
}
BENCHMARK(BM_MinHashUpdate)->Arg(10)->Arg(100)->Arg(1000);

void BM_RandomPairingUpdate(benchmark::State& state) {
  baseline::RandomPairingConfig config;
  config.k = static_cast<uint32_t>(state.range(0));
  baseline::RandomPairing method(config, UnitStream().num_users());
  DriveUpdates(state, method);
}
BENCHMARK(BM_RandomPairingUpdate)->Arg(10)->Arg(100)->Arg(1000);

void BM_VosPairEstimate(benchmark::State& state) {
  core::ShardedVosConfig config;  // one shard: the paper's VOS
  config.base.k = static_cast<uint32_t>(state.range(0));
  config.base.m = 1 << 22;
  core::ShardedVosMethod method(config, UnitStream().num_users());
  for (const auto& e : UnitStream().elements()) method.Update(e);
  method.PrepareQuery({0, 1});
  for (auto _ : state) {
    auto est = method.EstimatePair(0, 1);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_VosPairEstimate)->Arg(100)->Arg(6400);

}  // namespace
}  // namespace vos

BENCHMARK_MAIN();
