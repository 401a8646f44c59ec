#include "harness/method_factory.h"

#include <algorithm>

#include "baselines/bbit_minwise.h"
#include "baselines/hll_union.h"
#include "baselines/minhash.h"
#include "baselines/oph.h"
#include "baselines/random_pairing.h"
#include "core/odd_sketch.h"
#include "core/sharded_vos_method.h"
#include "hashing/hash64.h"
#include "hashing/seeds.h"

namespace vos::harness {
namespace {

uint64_t SeedFor(const MethodFactoryConfig& config, const std::string& name) {
  return hash::DeriveSeed(config.seed, hash::HashString(name));
}

std::unique_ptr<core::SimilarityMethod> MakeOph(
    const MethodFactoryConfig& config, baseline::Densification densification,
    const std::string& name) {
  baseline::OphConfig oph;
  oph.k = config.base_k;
  oph.densification = densification;
  oph.seed = SeedFor(config, name);
  oph.options.clamp_to_feasible = config.clamp;
  return std::make_unique<baseline::Oph>(
      oph, static_cast<stream::UserId>(config.num_users), config.num_items);
}

}  // namespace

StatusOr<std::unique_ptr<core::SimilarityMethod>> CreateMethod(
    const std::string& name, const MethodFactoryConfig& config) {
  if (config.num_users == 0 || config.num_items == 0) {
    return Status::InvalidArgument(
        "MethodFactoryConfig.num_users/num_items must be set");
  }
  const MemoryBudget budget(config.base_k, config.num_users);
  const auto num_users = static_cast<stream::UserId>(config.num_users);

  if (name == "VOS" || name == "VOS-sharded") {
    // "VOS" is the paper's method: one shard, synchronous ingest — one
    // shared array and the bare O(1) update per element.
    core::ShardedVosConfig sharded;
    sharded.base.k = budget.VosVirtualK(config.lambda);
    sharded.base.m = budget.VosArrayBits();  // total across shards
    // One seed for both names, so a 1-shard "VOS-sharded" is the
    // identical sketch (ShardedVosSketch::ShardConfig keeps the base
    // config then).
    sharded.base.seed = SeedFor(config, "VOS");
    if (name == "VOS-sharded") {
      sharded.num_shards = std::max<uint32_t>(1, config.vos_shards);
      sharded.ingest_threads = config.ingest_threads;
      sharded.ingest_producers =
          std::max<unsigned>(1, config.ingest_producers);
      sharded.batch_size = std::max<size_t>(1, config.ingest_batch);
    }
    core::VosEstimatorOptions options;
    options.clamp_to_feasible = config.clamp;
    return std::unique_ptr<core::SimilarityMethod>(
        std::make_unique<core::ShardedVosMethod>(sharded, num_users, options));
  }
  if (name == "MinHash") {
    baseline::MinHashConfig mh;
    mh.k = budget.BaselineK();
    mh.seed = SeedFor(config, name);
    mh.options.clamp_to_feasible = config.clamp;
    return std::unique_ptr<core::SimilarityMethod>(
        std::make_unique<baseline::MinHash>(mh, num_users, config.num_items));
  }
  if (name == "OPH") {
    return std::unique_ptr<core::SimilarityMethod>(
        MakeOph(config, baseline::Densification::kNone, name));
  }
  if (name == "OPH+rot") {
    return std::unique_ptr<core::SimilarityMethod>(
        MakeOph(config, baseline::Densification::kRotationRight, name));
  }
  if (name == "OPH+rand") {
    return std::unique_ptr<core::SimilarityMethod>(
        MakeOph(config, baseline::Densification::kRandomDirection, name));
  }
  if (name == "OPH+opt") {
    return std::unique_ptr<core::SimilarityMethod>(
        MakeOph(config, baseline::Densification::kOptimal, name));
  }
  if (name == "RP") {
    baseline::RandomPairingConfig rp;
    rp.k = budget.BaselineK();
    rp.seed = SeedFor(config, name);
    rp.options.clamp_to_feasible = config.clamp;
    return std::unique_ptr<core::SimilarityMethod>(
        std::make_unique<baseline::RandomPairing>(rp, num_users));
  }
  if (name == "OddSketch") {
    core::VosEstimatorOptions options;
    options.clamp_to_feasible = config.clamp;
    return std::unique_ptr<core::SimilarityMethod>(
        std::make_unique<core::DedicatedOddSketchMethod>(
            budget.DedicatedOddSketchBits(), num_users, SeedFor(config, name),
            options));
  }
  if (name == "HLL-union") {
    baseline::HllUnionConfig hll;
    // Equal memory at 8 bits/register: 32·k/8 = 4·k registers, rounded
    // down to a power of two (HLL requires it).
    uint32_t registers = 16;
    while (registers * 2 <= 4 * budget.BaselineK()) registers *= 2;
    hll.registers = registers;
    hll.seed = SeedFor(config, name);
    hll.options.clamp_to_feasible = config.clamp;
    return std::unique_ptr<core::SimilarityMethod>(
        std::make_unique<baseline::HllUnion>(hll, num_users));
  }
  if (name == "b-bit") {
    baseline::BbitMinwiseConfig bb;
    bb.k = budget.BbitK(config.bbit_b);
    bb.b = config.bbit_b;
    bb.seed = SeedFor(config, name);
    bb.options.clamp_to_feasible = config.clamp;
    return std::unique_ptr<core::SimilarityMethod>(
        std::make_unique<baseline::BbitMinwise>(bb, num_users,
                                                config.num_items));
  }
  return Status::InvalidArgument("unknown method '" + name + "'");
}

std::vector<std::string> PaperMethods() {
  return {"MinHash", "OPH", "RP", "VOS"};
}

std::vector<std::string> AllMethods() {
  return {"MinHash", "OPH",   "OPH+rot",   "OPH+rand", "OPH+opt",    "RP",
          "OddSketch", "b-bit", "HLL-union", "VOS",      "VOS-sharded"};
}

}  // namespace vos::harness
