// Quickstart: estimate user similarities over a fully dynamic graph stream
// with VOS in ~40 lines.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/sharded_vos_method.h"
#include "stream/element.h"

int main() {
  using vos::stream::Action;

  // A VOS sketch for 1,000 users: each user's virtual odd sketch has
  // k = 6400 bits, all stored in one shared array of 2^22 bits (512 KiB).
  // One shard with synchronous ingest (the config's defaults) is the
  // paper's VOS.
  vos::core::ShardedVosConfig config;
  config.base.k = 6400;
  config.base.m = uint64_t{1} << 22;
  config.base.seed = 42;
  vos::core::ShardedVosMethod vos_method(config, /*num_users=*/1000);

  // Alice (user 0) and Bob (user 1) subscribe to overlapping channels.
  // Channels 0..149 are shared; 150..249 are Alice-only, 300..399 Bob-only.
  for (uint32_t channel = 0; channel < 250; ++channel) {
    vos_method.Update({0, channel, Action::kInsert});
  }
  for (uint32_t channel = 0; channel < 150; ++channel) {
    vos_method.Update({1, channel, Action::kInsert});
  }
  for (uint32_t channel = 300; channel < 400; ++channel) {
    vos_method.Update({1, channel, Action::kInsert});
  }

  auto before = vos_method.EstimatePair(0, 1);
  std::printf("before unsubscriptions: common ≈ %.1f (true 150), "
              "Jaccard ≈ %.3f (true %.3f)\n",
              before.common, before.jaccard, 150.0 / 350.0);

  // Fully dynamic: Alice unsubscribes from half of the shared channels.
  // Deletions are the same O(1) bit flip as insertions — no rebuild.
  for (uint32_t channel = 0; channel < 75; ++channel) {
    vos_method.Update({0, channel, Action::kDelete});
  }

  auto after = vos_method.EstimatePair(0, 1);
  std::printf("after  unsubscriptions: common ≈ %.1f (true 75), "
              "Jaccard ≈ %.3f (true %.3f)\n",
              after.common, after.jaccard, 75.0 / 325.0);

  std::printf("shared array fill beta = %.4f, sketch memory = %zu KiB\n",
              vos_method.sketch().shard(0).beta(),
              vos_method.MemoryBits() / 8192);
  return 0;
}
