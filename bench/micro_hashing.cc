// Micro-benchmarks (M1) for the hashing substrate: the per-element cost of
// the mixer behind VOS's ψ and f (Hash64), the 2-universal family behind
// OPH, and the Feistel permutation. VOS's O(1) update is two Hash64
// evaluations plus a bit flip, so these numbers bound its throughput.

#include <benchmark/benchmark.h>

#include "hashing/feistel_permutation.h"
#include "hashing/hash64.h"
#include "hashing/two_universal.h"

namespace vos::hash {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 0x1234;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_Hash64Seeded(benchmark::State& state) {
  uint64_t x = 0x1234;
  for (auto _ : state) {
    x = Hash64(x, 42);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Hash64Seeded);

void BM_TwoUniversal(benchmark::State& state) {
  TwoUniversalHash h(7, 1 << 20);
  uint64_t x = 0x1234;
  for (auto _ : state) {
    x += h(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_TwoUniversal);

void BM_FeistelApply(benchmark::State& state) {
  FeistelPermutation perm(7, static_cast<uint64_t>(state.range(0)));
  uint64_t x = 0;
  for (auto _ : state) {
    x = perm.Apply(x % perm.domain_size());
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeistelApply)->Arg(1 << 10)->Arg(1 << 20)->Arg((1 << 20) + 7);

void BM_ReduceToRange(benchmark::State& state) {
  uint64_t x = 0x9999;
  for (auto _ : state) {
    x += ReduceToRange(Mix64(x), 6400);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ReduceToRange);

}  // namespace
}  // namespace vos::hash

BENCHMARK_MAIN();
