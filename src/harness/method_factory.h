// Construction of similarity methods by name under a shared memory budget.
//
// Bench binaries and tests name methods with strings ("VOS", "MinHash",
// "OPH", "RP", …); the factory translates a name plus a MemoryBudget into a
// correctly sized instance. Centralizing this guarantees that every
// experiment sizes methods by the same §V rule.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/similarity_method.h"
#include "harness/memory_budget.h"

namespace vos::harness {

/// Everything the factory needs besides the method name.
struct MethodFactoryConfig {
  /// Base register count k (per-user budget is 32·k bits).
  uint32_t base_k = 100;
  /// VOS virtual-size multiplier λ (§V uses 2).
  double lambda = 2.0;
  /// Digest width for "b-bit".
  uint32_t bbit_b = 2;
  /// Domain sizes of the target stream.
  uint64_t num_users = 0;
  uint64_t num_items = 0;
  /// Master seed (per-method seeds are derived from it and the name).
  uint64_t seed = 99;
  /// Apply feasible-range clamping to all estimates (DESIGN.md §5.3).
  bool clamp = true;
  /// Shard count for "VOS-sharded" (total memory budget is split across
  /// shards, so the comparison with "VOS" is equal-memory). Ignored by
  /// every other method.
  uint32_t vos_shards = 4;
  /// Ingest worker threads for "VOS-sharded": 0 = synchronous routing
  /// (deterministic, no worker threads), ≥1 spawns min(threads, shards)
  /// shard workers fed from bounded per-(producer, shard) queues.
  unsigned ingest_threads = 0;
  /// Producer lanes for "VOS-sharded"'s asynchronous pipeline: each lane
  /// routes its own batches and owns one bounded queue per shard, so
  /// ingest scales with concurrent producers (MeasureUpdateRuntime spawns
  /// one replay thread per lane). Ignored in synchronous mode and by
  /// every other method.
  unsigned ingest_producers = 1;
  /// Elements per auto-enqueued ingest batch for "VOS-sharded"'s
  /// per-element Update path.
  size_t ingest_batch = 4096;
  /// Pin "VOS-sharded" shard workers to NUMA nodes (worker w → node
  /// w mod nodes) and first-touch their shard state there. A performance
  /// hint only — estimates are bit-identical either way — so the harness
  /// default comes from numa::DefaultPinThreads() at the tool layer:
  /// off on single-node machines, on (or VOS_PIN) on multi-node ones.
  bool pin_threads = false;
  /// "VOS-sharded" query tier: maintain shard-local incremental
  /// SimilarityIndexes (core/query_planner.h) as the PrepareQuery cache.
  /// Checkpoints after the first refresh only changed rows instead of
  /// re-extracting every tracked user. Enables dirty tracking on the
  /// shards (a small per-update cost), so it is off by default to keep
  /// the Figure-2 update measurement at the paper's bare cost; estimates
  /// are bit-identical either way.
  bool query_shards_local = false;
  /// Planner task-level worker threads for query_shards_local (0 =
  /// hardware concurrency; SimilarityMethod::SetQueryThreads overrides).
  unsigned planner_threads = 0;
  /// Rows per tile edge of the pair-scan tier's all-pairs scans
  /// (core/pair_scan.h; 0 = the tier default). Lands in "VOS"'s
  /// MakeIndex QueryOptions and "VOS-sharded"'s planner mode; results
  /// are bit-identical for every value.
  size_t tile_rows = 0;
};

/// Recognized names: "VOS", "VOS-sharded", "MinHash", "OPH", "OPH+rot",
/// "OPH+rand", "OPH+opt", "RP", "OddSketch", "b-bit". Returns
/// InvalidArgument for anything else.
StatusOr<std::unique_ptr<core::SimilarityMethod>> CreateMethod(
    const std::string& name, const MethodFactoryConfig& config);

/// The paper's four methods in the paper's plotting order.
std::vector<std::string> PaperMethods();

/// All method names the factory accepts.
std::vector<std::string> AllMethods();

}  // namespace vos::harness
