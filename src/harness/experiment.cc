#include "harness/experiment.h"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "common/timer.h"
#include "exact/ground_truth.h"
#include "hashing/hash64.h"
#include "stream/replayer.h"

namespace vos::harness {

TrackedSet SelectTrackedSet(const stream::GraphStream& stream,
                            size_t top_users, size_t max_pairs,
                            uint64_t seed) {
  // Static view: the set of edges *ever inserted*, as the paper selects
  // users/pairs on the graph dataset itself, before the deletion process.
  // An edge deleted and later re-inserted (feasible per §II) counts once.
  exact::ExactStore static_store(stream.num_users());
  std::unordered_set<uint64_t> seen;
  for (const stream::Element& e : stream.elements()) {
    if (e.action != stream::Action::kInsert) continue;
    if (seen.insert(stream::EdgeKey(e.user, e.item)).second) {
      static_store.Update(e);
    }
  }
  TrackedSet tracked;
  tracked.users = exact::TopCardinalityUsers(static_store, top_users);
  tracked.pairs = exact::PairsWithCommonItems(static_store, tracked.users,
                                              max_pairs, seed);
  return tracked;
}

StatusOr<ExperimentResult> RunAccuracyExperiment(
    const stream::GraphStream& stream,
    const std::vector<std::string>& method_names,
    const ExperimentConfig& config) {
  if (stream.empty()) {
    return Status::InvalidArgument("empty stream");
  }
  MethodFactoryConfig factory = config.factory;
  factory.num_users = stream.num_users();
  factory.num_items = stream.num_items();

  // Instantiate all methods up front (fails fast on unknown names).
  std::vector<std::unique_ptr<core::SimilarityMethod>> methods;
  for (const std::string& name : method_names) {
    VOS_ASSIGN_OR_RETURN(auto method, CreateMethod(name, factory));
    method->SetQueryThreads(config.query_threads);
    methods.push_back(std::move(method));
  }

  const TrackedSet tracked = SelectTrackedSet(
      stream, config.top_users, config.max_pairs, factory.seed);
  if (tracked.pairs.empty()) {
    return Status::FailedPrecondition(
        "no tracked pairs: stream too sparse for top_users=" +
        std::to_string(config.top_users));
  }

  ExperimentResult result;
  result.stream_name = stream.name();
  result.stream_elements = stream.size();
  result.tracked_users = tracked.users.size();
  result.tracked_pairs = tracked.pairs.size();

  exact::ExactStore store(stream.num_users());
  stream::StreamReplayer::ReplayBatched(
      stream, config.num_checkpoints,
      std::max<size_t>(1, factory.ingest_batch),
      [&](const stream::Element* batch, size_t count) {
        for (size_t i = 0; i < count; ++i) store.Update(batch[i]);
        for (auto& method : methods) method->UpdateBatch(batch, count);
      },
      [&](size_t t) {
        Checkpoint cp;
        cp.t = t;
        cp.live_edges = store.TotalEdges();
        const std::vector<exact::PairTruth> truths =
            exact::ComputePairTruths(store, tracked.pairs);
        for (auto& method : methods) {
          // Quiesce async pipelines at checkpoints; a degraded pipeline
          // (poisoned shard, starved lane) invalidates the whole
          // accuracy run, so fail loudly instead of scoring bad state.
          const Status flushed = method->FlushIngest();
          VOS_CHECK(flushed.ok())
              << method->Name() << "ingest degraded:" << flushed.ToString();
          method->PrepareQuery(tracked.users);
          std::vector<core::PairEstimate> estimates;
          estimates.reserve(tracked.pairs.size());
          for (const exact::UserPair& pair : tracked.pairs) {
            estimates.push_back(method->EstimatePair(pair.u, pair.v));
          }
          method->InvalidateQueryCache();
          MethodCheckpoint mc;
          mc.method = method->Name();
          mc.metrics = EvaluatePairs(truths, estimates);
          cp.methods.push_back(std::move(mc));
        }
        result.checkpoints.push_back(std::move(cp));
      });
  return result;
}

StatusOr<double> MeasureUpdateRuntime(const stream::GraphStream& stream,
                                      const std::string& method_name,
                                      const MethodFactoryConfig& factory_in) {
  MethodFactoryConfig factory = factory_in;
  factory.num_users = stream.num_users();
  factory.num_items = stream.num_items();
  VOS_ASSIGN_OR_RETURN(auto method, CreateMethod(method_name, factory));

  // Batched replay, flushed inside the timed region, so methods with an
  // asynchronous ingest pipeline are charged for their whole pipeline —
  // not just the enqueue cost.
  const stream::Element* elements = stream.elements().data();
  const size_t total = stream.size();
  const size_t batch = std::max<size_t>(1, factory.ingest_batch);
  const unsigned producers = method->ConcurrentIngestProducers();
  if (producers <= 1) {
    WallTimer timer;
    for (size_t t = 0; t < total; t += batch) {
      method->UpdateBatch(elements + t, std::min(batch, total - t));
    }
    const Status flushed = method->FlushIngest();
    VOS_CHECK(flushed.ok())
        << method->Name() << "ingest degraded:" << flushed.ToString();
    return timer.ElapsedSeconds();
  }

  // Multi-producer replay: partition the stream by user across P lanes
  // (hash-scattered, like the shard routing), so each lane's sub-stream
  // stays feasible — a user's deletes never overtake their inserts when
  // their whole history rides one lane. Partitioning happens OUTSIDE the
  // timed region: in a deployment each producer receives its own stream;
  // the measured cost is the pipeline (routing, queues, shard workers),
  // not this harness-side split.
  std::vector<std::vector<stream::Element>> lanes(producers);
  for (auto& lane : lanes) lane.reserve(total / producers + 1);
  for (size_t t = 0; t < total; ++t) {
    lanes[hash::ReduceToRange(hash::Mix64(elements[t].user), producers)]
        .push_back(elements[t]);
  }
  WallTimer timer;
  // Per-lane flush statuses, checked after join: a lane's
  // DeadlineExceeded is not sticky, so dropping it here could let the
  // final global FlushIngest report OK over a silently degraded lane.
  std::vector<Status> lane_status(producers);
  {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        const std::vector<stream::Element>& lane = lanes[p];
        for (size_t t = 0; t < lane.size(); t += batch) {
          method->UpdateBatch(lane.data() + t,
                              std::min(batch, lane.size() - t), p);
        }
        lane_status[p] = method->FlushIngest(p);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (unsigned p = 0; p < producers; ++p) {
    VOS_CHECK(lane_status[p].ok()) << method->Name() << "producer" << p
                                   << "flush degraded:"
                                   << lane_status[p].ToString();
  }
  const Status flushed = method->FlushIngest();
  VOS_CHECK(flushed.ok())
      << method->Name() << "ingest degraded:" << flushed.ToString();
  return timer.ElapsedSeconds();
}

}  // namespace vos::harness
