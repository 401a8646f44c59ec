// Micro-benchmark (M3) for the batch query engine: digest-extraction
// throughput (users/s) and all-pairs estimate throughput (pairs/s),
// scalar seed path vs. the DigestMatrix batch engine.
//
// The scalar baseline is the seed implementation kept verbatim as
// Snapshot::AllPairsAboveReference — per-user heap BitVector
// digests, one Hamming-distance call and one closed-form (log) estimator
// evaluation per pair, single-threaded. The batch engine is
// QueryPlanner::AllPairsAbove over one shard: all digests packed into one
// contiguous DigestMatrix (thread-parallel extraction over the cached
// f-seed table), word-wise XOR+popcount kernels over cache-sized tiles, a
// log table instead of per-pair logs, the cardinality and Hamming
// prefilters, and the tiles spread across threads. Results are verified
// bit-identical before any timing is reported.
//
// The "planner" phase measures the shard-aware query tier
// (core/query_planner.h): AllPairsAbove planned as same-shard passes plus
// cross-shard blocks, scattered over --planner_threads task workers, at
// S ∈ {1, 4, 8} shards. The S=1 planner scans one global snapshot — the
// baseline the shard-scaling speedup column is measured against. Every
// planner result is verified bit-identical across planner thread counts,
// and (for --users ≤ 600) identical to the per-pair
// ShardedVosSketch::EstimatePair reference, before timing is reported.
//
// The "kernel_hamming" / "kernel_extract" phases are the dispatch tier's
// acceptance signal (common/kernels.h): the 1×8 and 4×4 blocked
// XOR+popcounts and the batched digest-extraction kernels timed once per
// dispatch level the build + CPU offers (scalar / neon / avx2 / avx512).
// Every level's output is verified bit-identical to the scalar reference
// table before its timing counts, and the speedup column divides by the
// scalar level's time — so these rows measure exactly what runtime
// dispatch buys on this host, inside the same JSON schema
// bench_compare.py trends on.
//
// The "hot_shard" phase is the tiled tier's acceptance signal
// (core/pair_scan.h): the candidate set is skewed so one shard owns most
// rows — before the tier that shard's triangle ran as ONE planner task
// and serialized, so planner threads could not help; tiles are the work
// unit now, so the same workload must show multi-thread scaling.
//
// Run: ./build/micro_query_path [--users=2000] [--k=6400] [--threads=8]
//      [--tau=0.5] [--repeats=3] [--planner_threads=0] [--tile_rows=0]
//      [--dispatch=auto|scalar|neon|avx2|avx512] [--csv=out.csv]

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/kernels.h"
#include "common/timer.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
#include "core/vos_sketch.h"

namespace vos::bench {
namespace {

using core::DigestMatrix;
using core::QueryOptions;
using core::QueryPlanner;
using core::ShardedVosConfig;
using core::ShardedVosSketch;
using core::Snapshot;
using core::VosConfig;
using core::VosSketch;
using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Synthetic community: every 4-user group's first two members share 80%
/// of their items (planted near-duplicates), the rest are disjoint — so
/// AllPairsAbove at moderate τ has real hits and realistic misses. Under
/// --dist=zipf (the default) the disjoint users' set sizes follow a
/// heavy-tailed ~1/rank law like real subscription graphs, which is what
/// the engine's cardinality-sorted sweep exploits; --dist=uniform gives
/// every user the same size, the prefilter's worst case.
std::vector<Element> BuildElements(UserId users, size_t edges_per_user,
                                   bool zipf) {
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    const bool clustered = u % 4 <= 1;
    const uint64_t base =
        clustered ? (u / 4) * uint64_t{1000000} : u * uint64_t{1000000};
    size_t edges = edges_per_user;
    if (zipf && !clustered) {
      edges = std::max<size_t>(10, 20 * edges_per_user / (1 + u % 200));
    }
    for (size_t i = 0; i < edges; ++i) {
      const bool shared = clustered && i < edges * 8 / 10;
      const ItemId item = static_cast<ItemId>(
          shared ? base + i : base + 500000 + (u % 4) * 100000 + i);
      elements.push_back({u, item, Action::kInsert});
    }
  }
  return elements;
}

VosSketch BuildSketch(const VosConfig& config, UserId users,
                      const std::vector<Element>& elements) {
  VosSketch sketch(config, users);
  for (const Element& e : elements) sketch.Update(e);
  return sketch;
}

/// Best-of-`repeats` wall time of `fn` in seconds.
template <typename Fn>
double BestSeconds(int repeats, const Fn& fn) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    fn();
    const double elapsed = timer.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

}  // namespace
}  // namespace vos::bench

int main(int argc, char** argv) {
  using namespace vos;
  using namespace vos::bench;

  const Flags flags = ParseFlagsOrDie(
      argc, argv,
      "[--users=N] [--edges_per_user=N] [--k=N] [--m=N] [--threads=N] "
      "[--tau=J] [--repeats=N] [--seed=N] [--dist=zipf|uniform] "
      "[--planner_threads=N] [--planner_shards=N] [--tile_rows=N] "
      "[--dispatch=auto|scalar|neon|avx2|avx512] [--csv=path] "
      "[--json=path]");
  const auto users = static_cast<UserId>(flags.GetInt("users", 2000));
  const auto edges_per_user =
      static_cast<size_t>(flags.GetInt("edges_per_user", 200));
  const auto threads = static_cast<unsigned>(flags.GetInt("threads", 8));
  const double tau = flags.GetDouble("tau", 0.5);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  const auto tile_rows = static_cast<size_t>(flags.GetInt("tile_rows", 0));
  const std::string dist = flags.GetString("dist", "zipf");
  VOS_CHECK(dist == "zipf" || dist == "uniform")
      << "--dist must be zipf or uniform, got" << dist;

  VosConfig config;
  config.k = static_cast<uint32_t>(flags.GetInt("k", 6400));
  config.m = static_cast<uint64_t>(flags.GetInt("m", int64_t{1} << 23));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  // --dispatch forces a kernel level for the whole run; the default keeps
  // the CPUID probe's pick. Rows carry the tag in the "kernel" column —
  // "auto" for probe-picked runs so row keys stay machine-independent.
  const std::string dispatch = flags.GetString("dispatch", "auto");
  std::string kernel_tag = "auto";
  if (dispatch != "auto") {
    kernels::DispatchLevel forced;
    VOS_CHECK(kernels::ParseDispatchLevel(dispatch.c_str(), &forced))
        << "--dispatch must be auto|scalar|neon|avx2|avx512, got" << dispatch;
    VOS_CHECK(kernels::SetDispatchLevel(forced))
        << "dispatch level" << dispatch
        << "is not available on this build/CPU";
    kernel_tag = kernels::LevelName(forced);
  }

  PrintBanner("micro_query_path — scalar seed path vs. batch query engine",
              flags);
  std::printf("kernel dispatch: %s (requested %s)\n",
              kernels::Active().name, dispatch.c_str());

  const std::vector<Element> elements =
      BuildElements(users, edges_per_user, dist == "zipf");
  const VosSketch sketch = BuildSketch(config, users, elements);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  const double num_pairs =
      0.5 * static_cast<double>(users) * (static_cast<double>(users) - 1.0);
  std::printf("sketch: k=%u m=%llu beta=%.4f | %u candidates, %.0f pairs, "
              "tau=%.2f\n\n",
              config.k, static_cast<unsigned long long>(config.m),
              sketch.beta(), users, num_pairs, tau);

  const std::vector<std::string> header = {
      "phase",      "engine", "kernel",  "threads", "seconds",
      "throughput", "unit",   "speedup", "recall"};
  TablePrinter table(header);
  std::vector<std::vector<std::string>> rows;
  // `recall` is 1.0 on every row: every path is exact. The kernel_*
  // phases stamp each row with the forced dispatch level; every other
  // row carries the run-wide tag.
  auto emit_row = [&](const std::string& phase, const std::string& engine,
                      const std::string& kernel, unsigned nthreads,
                      double seconds, double throughput,
                      const std::string& unit, double speedup) {
    std::vector<std::string> row = {
        phase,
        engine,
        kernel,
        TablePrinter::FormatInt(nthreads),
        TablePrinter::FormatDouble(seconds, 4),
        TablePrinter::FormatDouble(throughput, 4),
        unit,
        TablePrinter::FormatDouble(speedup, 3),
        TablePrinter::FormatDouble(1.0, 4)};
    table.AddRow(row);
    rows.push_back(std::move(row));
  };
  auto emit = [&](const std::string& phase, const std::string& engine,
                  unsigned nthreads, double seconds, double throughput,
                  const std::string& unit, double speedup) {
    emit_row(phase, engine, kernel_tag, nthreads, seconds, throughput, unit,
             speedup);
  };

  // ------------------------------------------------------ digest extraction
  const double scalar_extract = BestSeconds(repeats, [&] {
    std::vector<BitVector> digests;
    digests.reserve(candidates.size());
    for (UserId u : candidates) digests.push_back(sketch.ExtractUserSketch(u));
  });
  emit("extract", "scalar", 1, scalar_extract, users / scalar_extract,
       "users/s", 1.0);
  for (unsigned t : {1u, threads}) {
    const double batch_extract = BestSeconds(repeats, [&] {
      const core::DigestMatrix matrix =
          core::DigestMatrix::Build(sketch, candidates, t);
      (void)matrix;
    });
    emit("extract", "batch", t, batch_extract, users / batch_extract,
         "users/s", scalar_extract / batch_extract);
    if (threads == 1) break;
  }

  // ---------------------------------------------------------- kernel tier
  // One row per dispatch level for the kernels the query path spends its
  // time in: the 1×8 blocked XOR+popcount (TopK's scan and the pair
  // scan's leftover rows), the 4×4 one (the tiled pair scan's blocks)
  // and batched digest extraction (DigestMatrix::Build).
  // Reference outputs come from the scalar table; every level must match
  // them bit-for-bit before its timing counts, and speedup divides by the
  // scalar level's time — the measured value of runtime dispatch on this
  // host.
  {
    const kernels::DispatchLevel restore_level = kernels::ActiveLevel();
    VOS_CHECK(kernels::SetDispatchLevel(kernels::DispatchLevel::kScalar));
    const DigestMatrix matrix = DigestMatrix::Build(sketch, candidates, 1);
    const size_t words = matrix.words_per_row();
    const size_t mrows = matrix.rows();
    VOS_CHECK(mrows > 8) << "kernel phase needs more than 8 candidate rows";
    const size_t ham_pairs = (mrows - 8) * 8;
    // Scale sweeps so even the widest level runs long enough to time.
    const size_t sweeps = std::max<size_t>(
        1, 8'000'000 / std::max<size_t>(1, ham_pairs * words));

    const kernels::KernelTable& scalar_table =
        *kernels::TableFor(kernels::DispatchLevel::kScalar);
    std::vector<size_t> ham_ref(ham_pairs);
    for (size_t r = 0; r + 8 < mrows; ++r) {
      scalar_table.xor_popcount8(matrix.Row(r), matrix.Row(r + 1), words,
                                 words, &ham_ref[r * 8]);
    }
    // The 4×4 kernel (the AllPairsAbove scan's block): rows r..r+3
    // against rows r+4..r+7.
    const size_t blocks = mrows - 8;
    const size_t block_pairs = blocks * 16;
    const size_t block_sweeps = std::max<size_t>(
        1, 8'000'000 / std::max<size_t>(1, block_pairs * words));
    std::vector<size_t> block_ref(block_pairs);
    for (size_t r = 0; r < blocks; ++r) {
      scalar_table.xor_popcount4x4(matrix.Row(r), matrix.Row(r + 4), words,
                                   words, &block_ref[r * 16]);
    }

    double ham_scalar_seconds = 0.0;
    double block_scalar_seconds = 0.0;
    double extract_scalar_seconds = 0.0;
    size_t levels_verified = 0;
    for (const kernels::DispatchLevel level : kernels::AvailableLevels()) {
      VOS_CHECK(kernels::SetDispatchLevel(level));
      const kernels::KernelTable& kernel = kernels::Active();

      // Hamming: bit-identity against the scalar reference, then timing.
      std::vector<size_t> ham_out(ham_pairs);
      for (size_t r = 0; r + 8 < mrows; ++r) {
        kernel.xor_popcount8(matrix.Row(r), matrix.Row(r + 1), words, words,
                             &ham_out[r * 8]);
      }
      VOS_CHECK(ham_out == ham_ref)
          << kernel.name << " Hamming kernel diverges from scalar";
      size_t sink = 0;
      const double ham_seconds = BestSeconds(repeats, [&] {
        size_t block[8];
        for (size_t s = 0; s < sweeps; ++s) {
          for (size_t r = 0; r + 8 < mrows; ++r) {
            kernel.xor_popcount8(matrix.Row(r), matrix.Row(r + 1), words,
                                 words, block);
            sink += block[0] + block[7];
          }
        }
      });
      VOS_CHECK(sink != static_cast<size_t>(-1));  // keep results observable
      if (level == kernels::DispatchLevel::kScalar) {
        ham_scalar_seconds = ham_seconds;
      }
      emit_row("kernel_hamming", "xor_popcount8", kernel.name, 1, ham_seconds,
               static_cast<double>(ham_pairs * sweeps) / ham_seconds,
               "pairs/s", ham_scalar_seconds / ham_seconds);

      std::vector<size_t> block_out(block_pairs);
      for (size_t r = 0; r < blocks; ++r) {
        kernel.xor_popcount4x4(matrix.Row(r), matrix.Row(r + 4), words, words,
                               &block_out[r * 16]);
      }
      VOS_CHECK(block_out == block_ref)
          << kernel.name << " 4x4 Hamming kernel diverges from scalar";
      const double block_seconds = BestSeconds(repeats, [&] {
        size_t block[16];
        for (size_t s = 0; s < block_sweeps; ++s) {
          for (size_t r = 0; r < blocks; ++r) {
            kernel.xor_popcount4x4(matrix.Row(r), matrix.Row(r + 4), words,
                                   words, block);
            sink += block[0] + block[15];
          }
        }
      });
      VOS_CHECK(sink != static_cast<size_t>(-1));
      if (level == kernels::DispatchLevel::kScalar) {
        block_scalar_seconds = block_seconds;
      }
      emit_row("kernel_hamming", "xor_popcount4x4", kernel.name, 1,
               block_seconds,
               static_cast<double>(block_pairs * block_sweeps) / block_seconds,
               "pairs/s", block_scalar_seconds / block_seconds);

      // Extraction: DigestMatrix::Build routes through extract_bits; the
      // whole matrix must equal the scalar-built one word-for-word.
      const DigestMatrix level_matrix =
          DigestMatrix::Build(sketch, candidates, 1);
      VOS_CHECK(level_matrix.rows() == mrows &&
                level_matrix.words_per_row() == words);
      for (size_t r = 0; r < mrows; ++r) {
        VOS_CHECK(std::memcmp(level_matrix.Row(r), matrix.Row(r),
                              words * sizeof(uint64_t)) == 0)
            << kernel.name << " extraction diverges from scalar at row " << r;
      }
      const double extract_seconds = BestSeconds(repeats, [&] {
        const DigestMatrix built = DigestMatrix::Build(sketch, candidates, 1);
        (void)built;
      });
      if (level == kernels::DispatchLevel::kScalar) {
        extract_scalar_seconds = extract_seconds;
      }
      emit_row("kernel_extract", "extract_bits", kernel.name, 1,
               extract_seconds, users / extract_seconds, "users/s",
               extract_scalar_seconds / extract_seconds);
      ++levels_verified;
    }
    VOS_CHECK(kernels::SetDispatchLevel(restore_level));
    std::printf("\nkernel tier: %zu dispatch level(s) verified bit-identical "
                "to scalar before timing.\n",
                levels_verified);
  }

  // ----------------------------------------------------------- all-pairs
  // The batch engine is QueryPlanner over one shard, configured exactly as
  // `sketch` (ShardedVosConfig::base at S = 1); the scalar baseline is the
  // oracle over that shard's snapshot.
  ShardedVosConfig one_shard;
  one_shard.base = config;
  ShardedVosSketch one_shard_sketch(one_shard, users);
  one_shard_sketch.UpdateBatch(elements.data(), elements.size());
  QueryOptions query_options;
  query_options.num_threads = threads;
  query_options.tile_rows = tile_rows;
  QueryPlanner batch(one_shard_sketch, {}, query_options);
  batch.Rebuild(candidates);
  const Snapshot& snapshot = batch.shard_index(0);

  const auto reference = snapshot.AllPairsAboveReference(tau);
  const auto timed_batch = [&](unsigned t) {
    batch.set_num_threads(t);
    (void)batch.AllPairsAbove(tau);  // warm caches (evicted by the
                                     // scalar pass's digest copies)
    WallTimer timer;
    const auto result = batch.AllPairsAbove(tau);
    const double elapsed = timer.ElapsedSeconds();
    // Verify bit-identical results on every round, not just once.
    VOS_CHECK(result.size() == reference.size())
        << "batch engine disagrees with the scalar reference";
    for (size_t i = 0; i < result.size(); ++i) {
      VOS_CHECK(result[i].u == reference[i].u &&
                result[i].v == reference[i].v &&
                result[i].common == reference[i].common &&
                result[i].jaccard == reference[i].jaccard)
          << "pair " << i << " differs from the scalar reference";
    }
    return elapsed;
  };

  // Interleave the engines within each round so a slow scheduling window
  // on a shared machine penalizes all of them equally; report per-engine
  // minima.
  double scalar_pairs = 0.0, batch_one = 0.0, batch_many = 0.0;
  for (int r = 0; r < repeats; ++r) {
    (void)snapshot.AllPairsAboveReference(tau);  // warm caches
    WallTimer timer;
    const auto result = snapshot.AllPairsAboveReference(tau);
    const double scalar_elapsed = timer.ElapsedSeconds();
    VOS_CHECK(result.size() == reference.size());
    const double one = timed_batch(1);
    const double many = threads == 1 ? one : timed_batch(threads);
    if (r == 0 || scalar_elapsed < scalar_pairs) scalar_pairs = scalar_elapsed;
    if (r == 0 || one < batch_one) batch_one = one;
    if (r == 0 || many < batch_many) batch_many = many;
  }
  emit("all_pairs", "scalar", 1, scalar_pairs, num_pairs / scalar_pairs,
       "pairs/s", 1.0);
  emit("all_pairs", "batch", 1, batch_one, num_pairs / batch_one, "pairs/s",
       scalar_pairs / batch_one);
  if (threads != 1) {
    emit("all_pairs", "batch", threads, batch_many, num_pairs / batch_many,
         "pairs/s", scalar_pairs / batch_many);
  }

  // ------------------------------------------------------ sharded planner
  // Shard-scaling of the query tier: AllPairsAbove through QueryPlanner
  // at S ∈ {1, 4, 8}. The planner parallelizes across tasks (same-shard
  // passes + cross-shard row blocks); at S=1 there is exactly one task —
  // the single global index scanned single-threaded — which is the
  // baseline the speedup column divides by.
  const auto planner_threads =
      static_cast<unsigned>(flags.GetInt("planner_threads", 0));
  const auto max_planner_shards =
      static_cast<uint32_t>(flags.GetInt("planner_shards", 8));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw < 2) {
    std::printf("\n(single hardware thread: planner shard-scaling "
                "degenerates to the cross-shard kernel overhead; run on a "
                "multi-core host for the scaling measurement)\n");
  }
  double planner_base_seconds = 0.0;
  double planner_last_speedup = 1.0;
  uint32_t planner_last_shards = 1;
  for (const uint32_t shards : {1u, 4u, 8u}) {
    if (shards > max_planner_shards) break;
    ShardedVosConfig sharded;
    sharded.base = config;
    sharded.num_shards = shards;
    ShardedVosSketch sharded_sketch(sharded, users);
    sharded_sketch.UpdateBatch(elements.data(), elements.size());

    QueryOptions planner_options;
    planner_options.num_threads = planner_threads;
    planner_options.tile_rows = tile_rows;
    QueryPlanner planner(sharded_sketch, {}, planner_options);
    planner.Rebuild(candidates);

    // Verify before timing: bit-identical across planner thread counts,
    // and identical to the per-pair EstimatePair reference when the
    // candidate set is small enough for the O(n²·k) loop.
    QueryOptions one_thread = planner_options;
    one_thread.num_threads = 1;
    QueryPlanner single(sharded_sketch, {}, one_thread);
    single.Rebuild(candidates);
    const auto planner_reference = single.AllPairsAbove(tau);
    const auto planner_result = planner.AllPairsAbove(tau);
    VOS_CHECK(planner_result.size() == planner_reference.size())
        << "planner result depends on thread count at shards=" << shards;
    for (size_t i = 0; i < planner_result.size(); ++i) {
      VOS_CHECK(planner_result[i].u == planner_reference[i].u &&
                planner_result[i].v == planner_reference[i].v &&
                planner_result[i].common == planner_reference[i].common &&
                planner_result[i].jaccard == planner_reference[i].jaccard)
          << "planner pair " << i << " differs across thread counts";
    }
    if (users <= 600) {
      const auto brute = planner.AllPairsAboveReference(tau);
      VOS_CHECK(planner_result.size() == brute.size())
          << "planner disagrees with the EstimatePair reference";
      for (size_t i = 0; i < brute.size(); ++i) {
        VOS_CHECK(planner_result[i].u == brute[i].u &&
                  planner_result[i].v == brute[i].v &&
                  planner_result[i].common == brute[i].common &&
                  planner_result[i].jaccard == brute[i].jaccard)
            << "planner pair " << i << " differs from EstimatePair";
      }
    }

    const double planner_seconds = BestSeconds(repeats, [&] {
      (void)planner.AllPairsAbove(tau);
    });
    if (shards == 1) planner_base_seconds = planner_seconds;
    const double speedup = planner_base_seconds / planner_seconds;
    planner_last_speedup = speedup;
    planner_last_shards = shards;
    emit("planner_all_pairs", "planner-s" + std::to_string(shards),
         planner_threads, planner_seconds, num_pairs / planner_seconds,
         "pairs/s", speedup);
  }

  // ------------------------------------------------------ hot-shard tiling
  // Skewed candidate set: every user of shard 0 plus a 1-in-8 sprinkle of
  // the rest, so shard 0's triangle dominates the pair space. Pre-tier
  // that triangle was ONE planner task — threads>1 bought nothing here;
  // the tiled tier must show multi-thread scaling on exactly this
  // workload (the speedup column divides by the 1-thread time).
  {
    ShardedVosConfig sharded;
    sharded.base = config;
    sharded.num_shards = 4;
    ShardedVosSketch hot_sketch(sharded, users);
    hot_sketch.UpdateBatch(elements.data(), elements.size());
    std::vector<UserId> hot_candidates;
    size_t hot_rows = 0;
    for (UserId u = 0; u < users; ++u) {
      const bool hot = hot_sketch.ShardOf(u) == 0;
      if (hot || u % 8 == 0) {
        hot_candidates.push_back(u);
        if (hot) ++hot_rows;
      }
    }
    const double hot_n = static_cast<double>(hot_candidates.size());
    const double hot_pairs = 0.5 * hot_n * (hot_n - 1.0);

    QueryOptions hot_base;
    hot_base.tile_rows = tile_rows;
    hot_base.num_threads = 1;
    QueryPlanner hot_single(hot_sketch, {}, hot_base);
    hot_single.Rebuild(hot_candidates);
    const auto hot_reference = hot_single.AllPairsAbove(tau);

    std::printf("\nhot_shard workload: %zu candidates, %zu (%.0f%%) in "
                "shard 0 — pre-tier this triangle serialized as one task.\n",
                hot_candidates.size(), hot_rows,
                100.0 * static_cast<double>(hot_rows) / hot_n);

    double hot_base_seconds = 0.0;
    for (const unsigned t : {1u, threads}) {
      QueryOptions hot_options = hot_base;
      hot_options.num_threads = t;
      QueryPlanner hot_planner(hot_sketch, {}, hot_options);
      hot_planner.Rebuild(hot_candidates);
      // Bit-identity across thread counts on the skewed workload before
      // any timing — the tiles repartition the triangle, never its output.
      const auto hot_result = hot_planner.AllPairsAbove(tau);
      VOS_CHECK(hot_result.size() == hot_reference.size())
          << "hot-shard result depends on thread count";
      for (size_t i = 0; i < hot_result.size(); ++i) {
        VOS_CHECK(hot_result[i].u == hot_reference[i].u &&
                  hot_result[i].v == hot_reference[i].v &&
                  hot_result[i].common == hot_reference[i].common &&
                  hot_result[i].jaccard == hot_reference[i].jaccard)
            << "hot-shard pair " << i << " differs across thread counts";
      }
      const double hot_seconds = BestSeconds(repeats, [&] {
        (void)hot_planner.AllPairsAbove(tau);
      });
      if (t == 1) hot_base_seconds = hot_seconds;
      emit("hot_shard", "planner-s4-hot", t, hot_seconds,
           hot_pairs / hot_seconds, "pairs/s", hot_base_seconds / hot_seconds);
      if (threads == 1) break;
    }
  }

  EmitTable(flags, table, header, rows);
  MaybeEmitJson(flags, "micro_query_path", header, rows);
  std::printf("\n%zu pairs above tau=%.2f; batch results verified "
              "bit-identical to the scalar seed path.\n",
              reference.size(), tau);
  std::printf("all_pairs speedup: %.2fx single-thread, %.2fx with %u "
              "threads.\n",
              scalar_pairs / batch_one, scalar_pairs / batch_many, threads);
  std::printf("planner all_pairs scaling 1 -> %u shards: %.2fx vs. the "
              "single global index (task-parallel scatter-gather; needs "
              "multiple hardware threads).\n",
              planner_last_shards, planner_last_speedup);
  return 0;
}
