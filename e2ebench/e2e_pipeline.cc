// e2e_pipeline: the end-to-end benchmark of the VOS pipeline.
//
// For one workload it generates a fully dynamic stream from --seed, splits
// it by user into producer lanes and replays it closed-loop through
// core::ShardedVosMethod: every lane sends its next batch when UpdateBatch
// returns. At each checkpoint it runs FlushIngest, then PrepareQuery, then
// the workload's queries (planner AllPairsAbove / TopK, tracked-pair
// EstimatePair). Set-up runs three times (setup_s is the median); then
// the stream is replayed, each time into a fresh method, until --seconds
// have passed. One replay is a "rep"; the first is a warm-up, and every
// timing is a median over the other reps or over their pooled per-call
// samples.
//
// Correctness is checked outside the timed segments and any failure exits
// non-zero without printing metrics: tracked users' sketch cardinalities
// equal the exact store's at every checkpoint, sampled tracked-pair
// estimates are bit-identical to ShardedVosSketch::EstimatePair, final
// TopK answers equal QueryPlanner::TopKReference, every flush is OK and
// nothing is dropped.
//
// With --trace=1 the reps after the warm-up alternate untraced and traced. A traced rep
// records one span per timed call into each layer (run → segment → layer
// call; parallel lanes overlap), computes per-layer busy time, wall share
// and the self time no layer span covers, and dumps its spans to --spans.
// A traced run prints only the per-layer metrics; end-to-end metrics come
// from untraced runs.
//
// Usage:
//   e2e_pipeline --workload=paper-replay|allpairs-sweep|churn-topk
//                --seed=N --seconds=S --trace=0|1 [--spans=path]
//                [--scale=full|tiny]
// The last stdout line is the result object {"correct", "attempted",
// "failed", "metrics"}; the lines before it are the stream digest and the
// run context.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/thread_annotations.h"
#include "common/kernels.h"
#include "core/query_optimizer.h"
#include "core/query_planner.h"
#include "core/sharded_vos_method.h"
#include "exact/exact_store.h"
#include "exact/ground_truth.h"
#include "exact/pair_selection.h"
#include "harness/memory_budget.h"
#include "harness/metrics.h"
#include "hashing/hash64.h"
#include "stream/dataset.h"

namespace {

using vos::stream::Action;
using vos::stream::Element;
using vos::stream::UserId;

constexpr size_t kBatch = 4096;  // elements per UpdateBatch call
constexpr size_t kNeighbours = 10;  // k of every TopK query
// Latency samples per rep for query kinds a workload's loop does not run.
constexpr size_t kProbeTopK = 200;
constexpr size_t kProbeAllPairs = 3;
constexpr unsigned kProbeThreads = 2;  // as the planner workloads
constexpr uint32_t kBaseK = 100;  // k_base of the equal-memory rule
constexpr double kLambda = 2.0;   // k = λ·32·k_base = 6400

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "e2e_pipeline: check failed: %s\n", what.c_str());
  std::exit(1);
}

// ------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  std::string dataset;  // registry preset the stream is generated from
  double scale = 1.0;   // ScaleSpec factor (users, items, edges, period)
  double density = 1.0;  // further factor on edges, items and period only
  vos::stream::DeletionModel model = vos::stream::DeletionModel::kMassive;
  double deletion_fraction = 0.5;
  uint32_t shards = 4;
  unsigned lanes = 1;
  unsigned workers = 1;
  bool planner = false;  // shard-local planner mode (else digest cache)
  unsigned query_threads = 2;
  size_t candidates = 0;  // planner candidate set (0 = the tracked users)
  bool hashed_candidates = false;  // hash-scattered, not top-degree
  size_t tracked_users = 300;      // top-degree users the pairs come from
  size_t max_pairs = 20000;
  size_t checkpoints = 20;
  size_t eval_every = 1;        // tracked-pair estimates every n-th checkpoint
  std::vector<double> taus;     // AllPairsAbove thresholds per checkpoint
  size_t topk_per_checkpoint = 0;
  bool same_topk_users = false;  // the same query users every checkpoint
  double probe_tau = 0.3;        // final-snapshot AllPairsAbove probe / recall
};

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> specs;
  {
    // The paper's protocol through the default query mode; ingest does
    // most of the work. Denser users (edges and items ×density, same
    // users) grow the stream without growing m.
    WorkloadSpec w;
    w.name = "paper-replay";
    w.dataset = "orkut_s";
    w.scale = 0.25;
    w.density = 5.0;
    w.shards = 4;
    w.lanes = 2;
    w.workers = 2;
    w.query_threads = 4;
    w.tracked_users = 300;
    w.checkpoints = 20;
    w.eval_every = 4;
    w.probe_tau = 0.1;
    specs.push_back(w);
  }
  {
    // Planner mode; the pair scan and full snapshot rebuilds dominate.
    WorkloadSpec w;
    w.name = "allpairs-sweep";
    w.dataset = "orkut_s";
    w.scale = 0.25;
    w.shards = 4;
    w.lanes = 1;
    w.workers = 2;
    w.planner = true;
    w.candidates = 1500;
    w.tracked_users = 300;
    w.checkpoints = 20;
    w.eval_every = 2;
    w.taus = {0.1, 0.3};
    w.topk_per_checkpoint = 50;
    w.probe_tau = 0.1;
    specs.push_back(w);
  }
  {
    // Planner mode at S = 1 under steady churn; incremental refresh and
    // TopK dominate.
    WorkloadSpec w;
    w.name = "churn-topk";
    w.dataset = "youtube_s";
    w.scale = 0.25;
    w.model = vos::stream::DeletionModel::kProbabilistic;
    w.deletion_fraction = 0.3;
    w.shards = 1;
    w.lanes = 1;
    w.workers = 1;
    w.planner = true;
    w.candidates = 1000;
    w.hashed_candidates = true;
    w.tracked_users = 300;
    w.checkpoints = 250;
    w.eval_every = 25;
    w.topk_per_checkpoint = 40;
    w.same_topk_users = true;
    w.probe_tau = 0.3;
    specs.push_back(w);
  }
  return specs;
}

// Tiny variant for the benchmark's own tests: the same shape on ~1/20 of
// the data (density 1 keeps the generator's per-user degree cap feasible).
WorkloadSpec Tiny(WorkloadSpec w) {
  w.scale *= 0.2;
  w.density = 1.0;
  w.candidates = std::min<size_t>(w.candidates, 200);
  w.tracked_users = std::min<size_t>(w.tracked_users, 40);
  w.max_pairs = 500;
  w.checkpoints = std::max<size_t>(20, w.checkpoints / 5);
  w.eval_every = std::max<size_t>(1, w.eval_every / 5);
  w.topk_per_checkpoint = std::min<size_t>(w.topk_per_checkpoint, 20);
  return w;
}

// ----------------------------------------------------------------- set-up

/// Checkpoints whose tracked-pair estimates are taken and scored: every
/// eval_every-th, and always the final one.
bool Evaluated(const WorkloadSpec& w, size_t c) {
  return c % w.eval_every == 0 || c + 1 == w.checkpoints;
}

struct StreamDigest {
  size_t elements = 0;
  size_t deletions = 0;
  uint64_t hash = 0;
};

StreamDigest DigestOf(const std::vector<Element>& elements) {
  StreamDigest d;
  d.elements = elements.size();
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Element& e : elements) {
    const uint64_t word = (uint64_t{e.user} << 33) | (uint64_t{e.item} << 1) |
                          (e.action == Action::kDelete ? 1 : 0);
    h = vos::hash::Mix64(h ^ word);
    d.deletions += e.action == Action::kDelete ? 1 : 0;
  }
  d.hash = h;
  return d;
}

/// Everything one rep needs, built by Setup (timed as setup_s).
struct Prepared {
  StreamDigest digest;
  UserId num_users = 0;
  /// lane_elems[p] holds lane p's elements, segment after segment;
  /// lane_cut[p][c] is the end of segment c in it.
  std::vector<std::vector<Element>> lane_elems;
  std::vector<std::vector<size_t>> lane_cut;
  std::vector<UserId> candidates;  // planner candidates / PrepareQuery set
  std::vector<UserId> tracked;     // cardinality-checked pair endpoints
  std::vector<UserId> topk_users;  // TopK query order
  std::vector<vos::exact::UserPair> pairs;
  /// exact_cards[c][i] = |S_tracked[i]| after checkpoint c.
  std::vector<std::vector<uint32_t>> exact_cards;
  /// truths[i] at the i-th evaluated checkpoint.
  std::vector<std::vector<vos::exact::PairTruth>> truths;
  std::unique_ptr<vos::core::ShardedVosMethod> method;
};

std::vector<UserId> OrderedUsers(const std::vector<uint32_t>& degree,
                                 bool hashed, uint64_t salt, size_t take) {
  std::vector<UserId> users;
  for (UserId u = 0; u < degree.size(); ++u) {
    if (degree[u] > 0) users.push_back(u);
  }
  take = std::min(take, users.size());
  auto key = [&](UserId u) { return vos::hash::Mix64(u ^ salt); };
  if (hashed) {
    std::partial_sort(users.begin(), users.begin() + take, users.end(),
                      [&](UserId a, UserId b) { return key(a) < key(b); });
  } else {
    std::partial_sort(users.begin(), users.begin() + take, users.end(),
                      [&](UserId a, UserId b) {
                        return degree[a] != degree[b] ? degree[a] > degree[b]
                                                      : a < b;
                      });
  }
  users.resize(take);
  return users;
}

/// The method under test, sized by the equal-memory rule m = 32·k_base·|U|.
std::unique_ptr<vos::core::ShardedVosMethod> MakeMethod(const WorkloadSpec& w,
                                                        UserId num_users,
                                                        uint64_t seed) {
  const vos::harness::MemoryBudget budget(kBaseK, num_users);
  vos::core::ShardedVosConfig config;
  config.base.k = budget.VosVirtualK(kLambda);
  config.base.m = budget.VosArrayBits();
  config.base.seed = vos::hash::Mix64(seed ^ 0x705eedULL);
  config.base.track_dirty = false;  // the planner mode turns it on
  config.num_shards = w.shards;
  config.ingest_threads = w.workers;
  config.ingest_producers = w.lanes;
  config.batch_size = kBatch;
  vos::core::ShardedQueryConfig query;
  query.shards_local = w.planner;
  query.planner_threads = w.query_threads;
  auto method = std::make_unique<vos::core::ShardedVosMethod>(
      config, num_users, vos::core::VosEstimatorOptions{}, query);
  method->SetQueryThreads(w.query_threads);
  return method;
}

std::unique_ptr<Prepared> Setup(const WorkloadSpec& w, uint64_t seed) {
  auto prep = std::make_unique<Prepared>();
  // Stream generation.
  vos::StatusOr<vos::stream::DatasetSpec> base =
      vos::stream::GetDatasetSpec(w.dataset);
  if (!base.ok()) Fail(base.status().ToString());
  vos::stream::DatasetSpec spec = vos::stream::ScaleSpec(*base, w.scale);
  spec.graph.num_edges = static_cast<size_t>(
      std::llround(static_cast<double>(spec.graph.num_edges) * w.density));
  spec.graph.num_items = static_cast<uint32_t>(
      std::llround(static_cast<double>(spec.graph.num_items) * w.density));
  spec.dynamics.deletion_period = static_cast<size_t>(std::llround(
      static_cast<double>(spec.dynamics.deletion_period) * w.density));
  spec.dynamics.model = w.model;
  spec.dynamics.deletion_fraction = w.deletion_fraction;
  spec.graph.seed = vos::hash::Mix64(seed ^ spec.graph.seed);
  spec.dynamics.seed = vos::hash::Mix64(spec.graph.seed ^ 0x5ca1ab1eULL);
  const vos::stream::GraphStream stream = vos::stream::GenerateDataset(spec);
  const std::vector<Element>& elements = stream.elements();
  prep->num_users = stream.num_users();
  prep->digest = DigestOf(elements);

  // User selection on the static graph (each base edge is inserted once).
  std::vector<uint32_t> degree(prep->num_users, 0);
  for (const Element& e : elements) {
    degree[e.user] += e.action == Action::kInsert ? 1 : 0;
  }
  const uint64_t salt = vos::hash::Mix64(seed ^ 0xc0ffeeULL);
  if (w.planner) {
    prep->candidates =
        OrderedUsers(degree, w.hashed_candidates, salt, w.candidates);
    std::vector<uint32_t> candidate_degree(prep->num_users, 0);
    for (UserId u : prep->candidates) candidate_degree[u] = degree[u];
    prep->tracked =
        OrderedUsers(candidate_degree, false, salt, w.tracked_users);
  } else {
    prep->tracked = OrderedUsers(degree, false, salt, w.tracked_users);
    prep->candidates = prep->tracked;
  }
  if (w.same_topk_users) {
    prep->topk_users = prep->tracked;
  } else {
    prep->topk_users = prep->candidates;
    std::sort(prep->topk_users.begin(), prep->topk_users.end(),
              [&](UserId a, UserId b) {
                return vos::hash::Mix64(a ^ ~salt) <
                       vos::hash::Mix64(b ^ ~salt);
              });
  }
  std::vector<uint8_t> is_tracked(prep->num_users, 0);
  for (UserId u : prep->tracked) is_tracked[u] = 1;
  {
    vos::exact::ExactStore static_store(prep->num_users);
    for (const Element& e : elements) {
      if (is_tracked[e.user] && e.action == Action::kInsert) {
        static_store.Update(e);
      }
    }
    prep->pairs = vos::exact::PairsWithCommonItems(static_store, prep->tracked,
                                                   w.max_pairs, salt);
  }
  if (prep->pairs.empty()) Fail("workload has no tracked pairs");

  // Lane split by user (a user's history rides one lane, so every lane's
  // sub-stream stays feasible) at the global checkpoint cuts.
  const size_t n = elements.size();
  std::vector<size_t> cut(w.checkpoints);
  for (size_t c = 0; c < w.checkpoints; ++c) {
    cut[c] = (c + 1) * n / w.checkpoints;
  }
  prep->lane_elems.assign(w.lanes, {});
  prep->lane_cut.assign(w.lanes, std::vector<size_t>(w.checkpoints));
  for (auto& lane : prep->lane_elems) lane.reserve(n / w.lanes + 1);
  size_t t = 0;
  for (size_t c = 0; c < w.checkpoints; ++c) {
    for (; t < cut[c]; ++t) {
      const Element& e = elements[t];
      prep->lane_elems[vos::hash::ReduceToRange(vos::hash::Mix64(e.user),
                                                w.lanes)]
          .push_back(e);
    }
    for (unsigned p = 0; p < w.lanes; ++p) {
      prep->lane_cut[p][c] = prep->lane_elems[p].size();
    }
  }

  // Exact ground truth: an ExactStore replay of the tracked users' elements
  // (the only sets any truth reads), recorded at every checkpoint.
  {
    vos::exact::ExactStore store(prep->num_users);
    t = 0;
    for (size_t c = 0; c < w.checkpoints; ++c) {
      for (; t < cut[c]; ++t) {
        if (is_tracked[elements[t].user]) store.Update(elements[t]);
      }
      std::vector<uint32_t> cards(prep->tracked.size());
      for (size_t i = 0; i < prep->tracked.size(); ++i) {
        cards[i] = static_cast<uint32_t>(store.Cardinality(prep->tracked[i]));
      }
      prep->exact_cards.push_back(std::move(cards));
      if (Evaluated(w, c)) {
        prep->truths.push_back(
            vos::exact::ComputePairTruths(store, prep->pairs));
      }
    }
  }

  prep->method = MakeMethod(w, prep->num_users, seed);
  return prep;
}

// ---------------------------------------------------------------- tracing

enum Layer : uint8_t {
  kRun,
  kSegment,
  kUpdateBatch,
  kFlush,
  kPrepareQuery,
  kAllPairs,
  kTopK,
  kEstimate,
  kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "run",
    "segment",
    "sharded_vos_sketch.update_batch",
    "sharded_vos_sketch.flush",
    "query_planner.prepare_query",
    "pair_scan.allpairs",
    "query_planner.topk",
    "vos_estimator.estimate_pair",
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t checkpoint = 0;
  Layer layer = kRun;
};

/// Per-layer attribution of one traced rep.
struct Attribution {
  double busy_s[kLayerCount] = {};  // sum of span durations
  double wall_s[kLayerCount] = {};  // union of the layer's spans
  uint64_t calls[kLayerCount] = {};
  double unattributed_s = 0.0;  // segment time no child span covers
};

double UnionSeconds(std::vector<std::pair<int64_t, int64_t>>* intervals) {
  std::sort(intervals->begin(), intervals->end());
  int64_t covered = 0;
  int64_t lo = 0;
  int64_t hi = -1;
  for (const auto& [s, e] : *intervals) {
    if (s > hi) {
      if (hi > lo) covered += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) covered += hi - lo;
  return Seconds(covered);
}

Attribution Attribute(const std::vector<Span>& spans) {
  Attribution a;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    a.busy_s[s.layer] += Seconds(s.end_ns - s.start_ns);
    ++a.calls[s.layer];
    if (s.parent >= 0) children[s.parent].push_back(i);
  }
  for (size_t j = 0; j < spans.size(); ++j) {
    if (spans[j].layer != kSegment) continue;
    std::vector<std::pair<int64_t, int64_t>> all;
    std::vector<std::pair<int64_t, int64_t>> by_layer[kLayerCount];
    for (size_t i : children[j]) {
      const std::pair<int64_t, int64_t> iv{
          std::max(spans[i].start_ns, spans[j].start_ns),
          std::min(spans[i].end_ns, spans[j].end_ns)};
      all.push_back(iv);
      by_layer[spans[i].layer].push_back(iv);
    }
    a.unattributed_s +=
        Seconds(spans[j].end_ns - spans[j].start_ns) - UnionSeconds(&all);
    for (int l = 0; l < kLayerCount; ++l) {
      a.wall_s[l] += UnionSeconds(&by_layer[l]);
    }
  }
  a.wall_s[kSegment] = a.busy_s[kSegment];
  a.wall_s[kRun] = a.busy_s[kRun];
  return a;
}

void DumpSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "e2e_pipeline: cannot write %s\n", path.c_str());
    return;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64
                 ", \"parent\": %d, \"checkpoint\": %u}\n",
                 i, kLayerNames[s.layer], s.start_ns - origin,
                 s.end_ns - origin, s.parent, s.checkpoint);
  }
  std::fclose(f);
}

// ----------------------------------------------------------------- replay

/// What one rep measured.
struct RepResult {
  double run_s = 0.0;
  std::vector<double> ingest_meps;  // per segment
  size_t elements = 0;
  size_t flushes = 0;
  std::vector<double> freshness_ms;
  std::vector<double> topk_us;
  std::vector<double> allpairs_ms;
  double aape = 0.0;
  double armse = 0.0;
  uint64_t dropped = 0;
  // Traced reps only.
  bool traced = false;
  Attribution attribution;
  vos::core::ShardedVosSketch::SpinStats spin;
  uint64_t estimate_pairs = 0;
  uint64_t pairs_emitted = 0;
  uint64_t window_pairs = 0;
  uint64_t passes = 0;
  uint64_t banded_passes = 0;
  uint64_t snapshots = 0;
  uint64_t incremental_snapshots = 0;
  double dirty_fraction_sum = 0.0;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Segment hand-off between the replay thread and the producer-lane
/// threads: Open(i) releases segment i to every producer, each calls Done()
/// once it has fed it, and AwaitDone() returns when all have. Waiters spin
/// for a few microseconds before blocking, so a hand-off to a ready lane
/// does not wait for a scheduler wake-up.
class LaneGate {
 public:
  explicit LaneGate(unsigned producers) : producers_(producers) {}

  void Open(uint64_t segment) {
    {
      vos::MutexLock lock(&mu_);
      remaining_.store(producers_, std::memory_order_relaxed);
      opened_.store(segment + 1, std::memory_order_release);
    }
    cv_.NotifyAll();
  }

  void AwaitOpen(uint64_t segment) {
    Await([&] {
      return opened_.load(std::memory_order_acquire) > segment;
    });
  }

  void Done() {
    {
      vos::MutexLock lock(&mu_);
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
    }
    cv_.NotifyAll();
  }

  void AwaitDone() {
    Await([&] { return remaining_.load(std::memory_order_acquire) == 0; });
  }

 private:
  template <class Ready>
  void Await(Ready ready) {
    const int64_t spin_until = NowNs() + 20'000;
    while (NowNs() < spin_until) {
      if (ready()) return;
    }
    vos::MutexLock lock(&mu_);
    cv_.Wait(mu_, ready);
  }

  const unsigned producers_;
  std::atomic<uint64_t> opened_{0};
  std::atomic<unsigned> remaining_{0};
  vos::Mutex mu_;
  vos::CondVar cv_;
};

/// Replays the prepared stream once. Correctness checks run between the
/// timed segments; a failed check exits.
RepResult Replay(const WorkloadSpec& w, Prepared& prep, bool trace,
                 std::vector<Span>* spans) {
  vos::core::ShardedVosMethod& method = *prep.method;
  const vos::core::ShardedVosSketch& sketch = method.sketch();
  RepResult r;
  r.traced = trace;
  std::vector<std::vector<Span>> lane_spans(w.lanes);
  spans->clear();
  spans->push_back(Span{NowNs(), 0, -1, 0, kRun});
  auto record = [&](Layer layer, int32_t parent, uint32_t cp, int64_t start,
                    int64_t end) {
    if (trace) spans->push_back(Span{start, end, parent, cp, layer});
  };

  double aape_sum = 0.0;
  double armse_sum = 0.0;
  size_t evals = 0;
  size_t topk_cursor = 0;
  std::vector<vos::core::PairEstimate> estimates(prep.pairs.size());
  std::vector<int64_t> lane_end(w.lanes, 0);

  // Ingest: every lane feeds its slice of segment `c`, closed-loop. Lane 0
  // is this thread; lanes 1..P-1 are producer threads that live for the
  // whole rep (a thread spawned per segment would charge its start-up and
  // exit to the segment) and take segments from a LaneGate, which also
  // publishes `c` and `seg` to them.
  size_t c = 0;
  int32_t seg = 0;
  auto feed = [&](unsigned p) {
    const std::vector<Element>& lane = prep.lane_elems[p];
    const size_t begin = c == 0 ? 0 : prep.lane_cut[p][c - 1];
    const size_t end = prep.lane_cut[p][c];
    const auto cp = static_cast<uint32_t>(c);
    for (size_t i = begin; i < end; i += kBatch) {
      const size_t count = std::min(kBatch, end - i);
      if (trace) {
        const int64_t s = NowNs();
        method.UpdateBatch(lane.data() + i, count, p);
        lane_spans[p].push_back(Span{s, NowNs(), seg, cp, kUpdateBatch});
      } else {
        method.UpdateBatch(lane.data() + i, count, p);
      }
    }
    lane_end[p] = NowNs();
  };
  LaneGate gate(w.lanes - 1);
  std::vector<std::thread> producers;
  for (unsigned p = 1; p < w.lanes; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < w.checkpoints; ++i) {
        gate.AwaitOpen(i);
        feed(p);
        gate.Done();
      }
    });
  }

  for (; c < w.checkpoints; ++c) {
    const auto cp = static_cast<uint32_t>(c);
    seg = static_cast<int32_t>(spans->size());
    const int64_t seg_start = NowNs();
    if (trace) spans->push_back(Span{seg_start, 0, 0, cp, kSegment});
    gate.Open(c);
    feed(0);
    gate.AwaitDone();
    const int64_t last_update = *std::max_element(lane_end.begin(),
                                                  lane_end.end());
    int64_t s = NowNs();
    const vos::Status flushed = method.FlushIngest();
    const int64_t flush_end = NowNs();
    record(kFlush, seg, cp, s, flush_end);
    ++r.flushes;
    size_t seg_elements = 0;
    for (const std::vector<size_t>& cut : prep.lane_cut) {
      seg_elements += cut[c] - (c == 0 ? 0 : cut[c - 1]);
    }
    r.ingest_meps.push_back(static_cast<double>(seg_elements) /
                            Seconds(flush_end - seg_start) * 1e-6);

    s = NowNs();
    method.PrepareQuery(prep.candidates);
    record(kPrepareQuery, seg, cp, s, NowNs());

    std::vector<size_t> emitted;
    int64_t sweep_ns = 0;
    for (double tau : w.taus) {
      s = NowNs();
      const auto result = method.planner()->AllPairsAbove(tau);
      const int64_t e = NowNs();
      record(kAllPairs, seg, cp, s, e);
      sweep_ns += e - s;
      emitted.push_back(result.size());
    }
    if (!w.taus.empty()) {
      r.allpairs_ms.push_back(static_cast<double>(sweep_ns) * 1e-6);
    }
    for (size_t q = 0; q < w.topk_per_checkpoint; ++q) {
      const UserId user = prep.topk_users[w.same_topk_users
                                              ? q % prep.topk_users.size()
                                              : topk_cursor++ %
                                                    prep.topk_users.size()];
      s = NowNs();
      const auto result = method.planner()->TopK(user, kNeighbours);
      const int64_t e = NowNs();
      record(kTopK, seg, cp, s, e);
      r.topk_us.push_back(static_cast<double>(e - s) * 1e-3);
      if (result.empty()) Fail("empty TopK answer");
    }
    const bool eval = Evaluated(w, c);
    if (eval) {
      s = NowNs();
      for (size_t i = 0; i < prep.pairs.size(); ++i) {
        estimates[i] = method.EstimatePair(prep.pairs[i].u, prep.pairs[i].v);
      }
      record(kEstimate, seg, cp, s, NowNs());
      r.estimate_pairs += prep.pairs.size();
    }
    const int64_t seg_end = NowNs();
    if (trace) (*spans)[seg].end_ns = seg_end;
    r.run_s += Seconds(seg_end - seg_start);
    r.freshness_ms.push_back(static_cast<double>(seg_end - last_update) *
                             1e-6);
    for (auto& lane : lane_spans) {
      spans->insert(spans->end(), lane.begin(), lane.end());
      lane.clear();
    }

    // ---- Outside the timed segment: checks and layer counters.
    if (!flushed.ok()) Fail("FlushIngest: " + flushed.ToString());
    if (sketch.dropped_elements() != 0) Fail("dropped elements");
    for (size_t i = 0; i < prep.tracked.size(); ++i) {
      if (sketch.Cardinality(prep.tracked[i]) != prep.exact_cards[c][i]) {
        Fail("cardinality of user " + std::to_string(prep.tracked[i]) +
             " at checkpoint " + std::to_string(c));
      }
    }
    for (size_t e : emitted) r.pairs_emitted += e;
    if (eval) {
      const auto& truths = prep.truths[evals];
      const vos::harness::PairMetrics m =
          vos::harness::EvaluatePairs(truths, estimates);
      aape_sum += m.aape;
      armse_sum += m.armse;
      ++evals;
      const size_t stride = std::max<size_t>(1, prep.pairs.size() / 16);
      for (size_t i = c % stride; i < prep.pairs.size(); i += stride) {
        const auto ref = sketch.EstimatePair(prep.pairs[i].u, prep.pairs[i].v);
        if (!SameBits(ref.common, estimates[i].common) ||
            !SameBits(ref.jaccard, estimates[i].jaccard)) {
          Fail("tracked-pair estimate differs from "
               "ShardedVosSketch::EstimatePair");
        }
      }
    }
    if (trace && w.planner) {
      const vos::core::QueryPlanner& planner = *method.planner();
      for (uint32_t sh = 0; sh < sketch.num_shards(); ++sh) {
        const double f = planner.shard_index(sh).last_refresh_dirty_fraction();
        ++r.snapshots;
        r.incremental_snapshots += f < 1.0 ? 1 : 0;
        r.dirty_fraction_sum += f;
      }
      for (double tau : w.taus) {
        for (const auto& report : planner.PlanAllPairs(tau)) {
          r.window_pairs += report.stats.exact_pairs;
          ++r.passes;
          r.banded_passes +=
              report.plan.kind == vos::core::optimizer::PlanKind::kBanded;
        }
      }
    }
  }
  for (std::thread& th : producers) th.join();
  (*spans)[0].end_ns = NowNs();
  r.elements = 0;
  for (const auto& lane : prep.lane_elems) r.elements += lane.size();
  r.aape = aape_sum / static_cast<double>(evals);
  r.armse = armse_sum / static_cast<double>(evals);
  r.dropped = sketch.dropped_elements();
  r.spin = sketch.IngestSpinStats();
  if (trace) r.attribution = Attribute(*spans);
  return r;
}

// ------------------------------------------------- final-snapshot probes

/// Runs after every rep, on its final snapshot and outside every timed
/// segment. For query kinds the workload's loop does not run it adds
/// latency samples of that kind to `r`, so every workload reports every
/// latency, sampled across the whole run. With `check` it also returns
/// the AllPairsAbove recall (auto plan against VOS_PLAN=exact, re-read
/// per query) and checks TopK against TopKReference.
double Probe(const WorkloadSpec& w, Prepared& prep, bool check, RepResult* r) {
  std::unique_ptr<vos::core::QueryPlanner> own;
  const vos::core::QueryPlanner* planner = prep.method->planner();
  if (planner == nullptr) {
    vos::core::QueryOptions options;
    options.num_threads = kProbeThreads;
    own = std::make_unique<vos::core::QueryPlanner>(
        prep.method->sketch(), vos::core::VosEstimatorOptions{}, options);
    own->Rebuild(prep.candidates);
    planner = own.get();
  }
  if (w.topk_per_checkpoint == 0) {
    for (size_t q = 0; q < kProbeTopK; ++q) {
      const UserId user = prep.topk_users[q % prep.topk_users.size()];
      const int64_t s = NowNs();
      const auto result = planner->TopK(user, kNeighbours);
      r->topk_us.push_back(static_cast<double>(NowNs() - s) * 1e-3);
      if (result.empty()) Fail("empty TopK answer");
    }
  }
  if (w.taus.empty()) {
    for (size_t q = 0; q < kProbeAllPairs; ++q) {
      const int64_t s = NowNs();
      const auto result = planner->AllPairsAbove(w.probe_tau);
      r->allpairs_ms.push_back(static_cast<double>(NowNs() - s) * 1e-6);
    }
  }
  if (!check) return 0.0;

  const auto auto_pairs = planner->AllPairsAbove(w.probe_tau);
  setenv("VOS_PLAN", "exact", 1);
  const auto exact_pairs = planner->AllPairsAbove(w.probe_tau);
  unsetenv("VOS_PLAN");
  if (exact_pairs.empty()) Fail("recall probe has no exact pairs");
  std::vector<uint64_t> found;
  for (const auto& p : auto_pairs) found.push_back((uint64_t{p.u} << 32) | p.v);
  std::sort(found.begin(), found.end());
  size_t hits = 0;
  for (const auto& p : exact_pairs) {
    hits += std::binary_search(found.begin(), found.end(),
                               (uint64_t{p.u} << 32) | p.v);
  }
  for (size_t q = 0; q < std::min<size_t>(2, prep.topk_users.size()); ++q) {
    const UserId user = prep.topk_users[q];
    const auto got = planner->TopK(user, kNeighbours);
    const auto want = planner->TopKReference(user, kNeighbours);
    bool same = got.size() == want.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].user == want[i].user &&
             SameBits(got[i].common, want[i].common) &&
             SameBits(got[i].jaccard, want[i].jaccard);
    }
    if (!same) Fail("TopK differs from TopKReference");
  }
  return static_cast<double>(hits) / static_cast<double>(exact_pairs.size());
}

// ---------------------------------------------------------------- metrics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// A rep's TopK latency quantile; reported as the median over reps, so
/// one rep that met a burst of scheduler noise does not set the tail.
auto TopKQuantile(double q) {
  return [q](const RepResult& r) { return Quantile(r.topk_us, q); };
}

template <class F>
double MedianOver(const std::vector<const RepResult*>& reps, F f) {
  std::vector<double> v;
  for (const RepResult* r : reps) v.push_back(f(*r));
  return Median(std::move(v));
}

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

/// The result object; only printed once every check has passed.
void PrintResult(const std::vector<MetricOut>& metrics, uint64_t attempted,
                 uint64_t failed) {
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = vos::Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const vos::Flags& flags = *parsed;
  const std::string name = flags.GetString("workload", "");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string spans_path = flags.GetString("spans", "");
  const std::string scale = flags.GetString("scale", "full");

  WorkloadSpec w;
  bool found = false;
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      w = spec;
      found = true;
    }
  }
  if (!found || (scale != "full" && scale != "tiny")) {
    std::fprintf(stderr,
                 "usage: e2e_pipeline --workload=paper-replay|allpairs-sweep|"
                 "churn-topk --seed=N --seconds=S --trace=0|1 "
                 "[--spans=path] [--scale=full|tiny]\n");
    return 2;
  }
  if (scale == "tiny") w = Tiny(w);

  // Lazy one-time costs (kernel dispatch probe, optimizer calibration)
  // happen here, before any timer.
  (void)vos::kernels::Active();
  (void)vos::core::optimizer::CalibratedCosts();

  // Set up kSetups times from scratch (setup_s is their median) and keep
  // the last; then replay its stream, each time into a freshly built
  // method, until --seconds have passed. Replay 0 warms caches and
  // allocator after the set-ups: it is checked but not reported. After it
  // a traced run alternates untraced (odd) and traced (even) replays.
  constexpr size_t kSetups = 3;
  constexpr size_t kMinReplays = 3;
  const int64_t start = NowNs();
  std::vector<double> setup_times;
  std::unique_ptr<Prepared> prep;
  for (size_t i = 0; i < kSetups; ++i) {
    const StreamDigest previous = prep ? prep->digest : StreamDigest{};
    prep.reset();
    const int64_t s = NowNs();
    prep = Setup(w, seed);
    setup_times.push_back(Seconds(NowNs() - s));
    if (i > 0 && (prep->digest.hash != previous.hash ||
                  prep->digest.elements != previous.elements)) {
      Fail("set-up is not deterministic");
    }
  }
  std::vector<RepResult> reps;  // the reported replays
  std::vector<Span> spans;
  std::vector<Span> last_traced_spans;
  double recall = 0.0;
  double aape = 0.0;
  double armse = 0.0;
  for (size_t rep = 0;
       rep < kMinReplays || Seconds(NowNs() - start) < seconds; ++rep) {
    if (rep > 0) {
      prep->method.reset();
      prep->method = MakeMethod(w, prep->num_users, seed);
    }
    const bool traced = trace && rep > 0 && rep % 2 == 0;
    RepResult r = Replay(w, *prep, traced, &spans);
    const double rep_recall = Probe(w, *prep, rep == 0, &r);
    if (rep == 0) {
      recall = rep_recall;
      aape = r.aape;
      armse = r.armse;
      continue;
    }
    if (!SameBits(r.aape, aape) || !SameBits(r.armse, armse)) {
      Fail("accuracy differs between replays of one seed");
    }
    if (traced) last_traced_spans = spans;
    reps.push_back(std::move(r));
  }

  std::printf("{\"stream_digest\": {\"elements\": %zu, \"delete_share\": "
              "%.6f, \"hash\": \"%016" PRIx64 "\"}}\n",
              prep->digest.elements,
              static_cast<double>(prep->digest.deletions) /
                  static_cast<double>(prep->digest.elements),
              prep->digest.hash);
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"scale\": \"%s\", \"nproc\": %u, \"kernels\": \"%s\", "
      "\"build_type\": \"%s\", \"native_arch\": %d, \"dataset\": \"%s\", "
      "\"dataset_scale\": %g, \"density\": %g, \"users\": %u, "
      "\"shards\": %u, \"lanes\": %u, \"workers\": %u, \"planner\": %s, "
      "\"query_threads\": %u, \"candidates\": %zu, \"tracked_pairs\": %zu, "
      "\"checkpoints\": %zu, \"reps\": %zu, \"k\": %u}}\n",
      w.name.c_str(), seed, scale.c_str(),
      std::thread::hardware_concurrency(), vos::kernels::Active().name,
      E2E_BUILD_TYPE, E2E_NATIVE_ARCH, w.dataset.c_str(), w.scale, w.density,
      prep->num_users, w.shards, w.lanes, w.workers,
      w.planner ? "true" : "false", w.query_threads, prep->candidates.size(),
      prep->pairs.size(), w.checkpoints, reps.size(),
      prep->method->sketch().config().base.k);

  std::vector<const RepResult*> plain;
  std::vector<const RepResult*> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RepResult& r : reps) {
    (r.traced ? traced : plain).push_back(&r);
    attempted += r.elements + r.flushes;
    failed += r.dropped;
  }

  std::vector<MetricOut> metrics;
  if (!trace) {
    std::vector<double> ingest;
    std::vector<double> freshness;
    std::vector<double> topk;
    std::vector<double> allpairs;
    for (const RepResult* r : plain) {
      ingest.insert(ingest.end(), r->ingest_meps.begin(),
                    r->ingest_meps.end());
      freshness.insert(freshness.end(), r->freshness_ms.begin(),
                       r->freshness_ms.end());
      topk.insert(topk.end(), r->topk_us.begin(), r->topk_us.end());
      allpairs.insert(allpairs.end(), r->allpairs_ms.begin(),
                      r->allpairs_ms.end());
    }
    metrics = {
        {"setup_s", Median(setup_times), "s"},
        {"run_s", MedianOver(plain, [](auto& r) { return r.run_s; }), "s"},
        {"ingest_meps", Median(ingest), "Melem/s"},
        {"freshness_ms_p50", Median(freshness), "ms"},
        {"topk_us_p50", Median(topk), "us"},
        {"allpairs_ms_p50", Median(allpairs), "ms"},
        {"aape", aape, "ratio"},
        {"armse", armse, "ratio"},
        {"allpairs_recall", recall, "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  } else {
    auto busy = [](Layer l) {
      return [l](const RepResult& r) { return r.attribution.busy_s[l]; };
    };
    auto calls = [](Layer l) {
      return [l](const RepResult& r) {
        return static_cast<double>(r.attribution.calls[l]);
      };
    };
    auto share = [](std::initializer_list<Layer> layers) {
      return [layers](const RepResult& r) {
        double wall = 0.0;
        for (Layer l : layers) wall += r.attribution.wall_s[l];
        return wall / r.run_s;
      };
    };
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double plain_run = MedianOver(plain, [](auto& r) { return r.run_s; });
    const double traced_run =
        MedianOver(traced, [](auto& r) { return r.run_s; });
    metrics = {
        {"query_planner.topk_us_p90", MedianOver(traced, TopKQuantile(0.9)), "us"},
        {"query_planner.topk_us_p99", MedianOver(traced, TopKQuantile(0.99)), "us"},
        {"sharded_vos_sketch.update_batch_s", MedianOver(traced, busy(kUpdateBatch)), "s"},
        {"sharded_vos_sketch.update_batch_calls", MedianOver(traced, calls(kUpdateBatch)), "count"},
        {"sharded_vos_sketch.flush_s", MedianOver(traced, busy(kFlush)), "s"},
        {"sharded_vos_sketch.flush_calls", MedianOver(traced, calls(kFlush)), "count"},
        {"sharded_vos_sketch.push_parks", MedianOver(traced, [](auto& r) { return static_cast<double>(r.spin.push_parks); }), "count"},
        {"sharded_vos_sketch.push_spin_saves", MedianOver(traced, [](auto& r) { return static_cast<double>(r.spin.push_spin_saves); }), "count"},
        {"sharded_vos_sketch.idle_parks", MedianOver(traced, [](auto& r) { return static_cast<double>(r.spin.idle_parks); }), "count"},
        {"sharded_vos_sketch.dropped_elements", MedianOver(traced, [](auto& r) { return static_cast<double>(r.dropped); }), "count"},
        {"sharded_vos_sketch.share", MedianOver(traced, share({kUpdateBatch, kFlush})), "ratio"},
        {"query_planner.prepare_query_s", MedianOver(traced, busy(kPrepareQuery)), "s"},
        {"query_planner.prepare_query_calls", MedianOver(traced, calls(kPrepareQuery)), "count"},
        {"query_planner.prepare_query_share", MedianOver(traced, share({kPrepareQuery})), "ratio"},
        {"similarity_index.incremental_share", MedianOver(traced, [&](auto& r) { return ratio(static_cast<double>(r.incremental_snapshots), static_cast<double>(r.snapshots)); }), "ratio"},
        {"similarity_index.dirty_fraction_mean", MedianOver(traced, [&](auto& r) { return ratio(r.dirty_fraction_sum, static_cast<double>(r.snapshots)); }), "ratio"},
        {"pair_scan.allpairs_s", MedianOver(traced, busy(kAllPairs)), "s"},
        {"pair_scan.allpairs_calls", MedianOver(traced, calls(kAllPairs)), "count"},
        {"pair_scan.pairs_emitted", MedianOver(traced, [](auto& r) { return static_cast<double>(r.pairs_emitted); }), "count"},
        {"pair_scan.emit_ratio", MedianOver(traced, [&](auto& r) { return ratio(static_cast<double>(r.pairs_emitted), static_cast<double>(r.window_pairs)); }), "ratio"},
        {"pair_scan.allpairs_share", MedianOver(traced, share({kAllPairs})), "ratio"},
        {"query_optimizer.window_pairs", MedianOver(traced, [](auto& r) { return static_cast<double>(r.window_pairs); }), "count"},
        {"query_optimizer.banded_pass_share", MedianOver(traced, [&](auto& r) { return ratio(static_cast<double>(r.banded_passes), static_cast<double>(r.passes)); }), "ratio"},
        {"query_planner.topk_s", MedianOver(traced, busy(kTopK)), "s"},
        {"query_planner.topk_calls", MedianOver(traced, calls(kTopK)), "count"},
        {"query_planner.topk_share", MedianOver(traced, share({kTopK})), "ratio"},
        {"vos_estimator.estimate_pair_s", MedianOver(traced, busy(kEstimate)), "s"},
        {"vos_estimator.estimate_pairs", MedianOver(traced, [](auto& r) { return static_cast<double>(r.estimate_pairs); }), "count"},
        {"vos_estimator.share", MedianOver(traced, share({kEstimate})), "ratio"},
        {"trace.unattributed_share", MedianOver(traced, [](auto& r) { return r.attribution.unattributed_s / r.run_s; }), "ratio"},
        {"trace.overhead_share", traced_run / plain_run - 1.0, "ratio"},
    };
    if (!spans_path.empty()) DumpSpans(last_traced_spans, spans_path);
  }
  PrintResult(metrics, attempted, failed);
  return 0;
}
