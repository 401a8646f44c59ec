// vos — command-line front end to the library.
//
// Subcommands:
//   vos datasets
//       List the registered dataset presets.
//   vos generate --dataset=<name> [--scale=X] --out=<path> [--format=text|bin]
//       Generate a preset's fully dynamic stream and write it to a file.
//   vos inspect --in=<path>  (or --dataset=<name>)
//       Print stream statistics and degree distributions.
//   vos run [--dataset=<name> | --in=<path>] [--methods=VOS,MinHash,...]
//           [--k=100] [--lambda=2] [--top-users=300] [--max-pairs=20000]
//           [--checkpoints=5] [--csv=<path>]
//       Run the §V accuracy protocol and print AAPE/ARMSE per checkpoint.
//   vos convert --in=<path> --out=<path> [--format=text|bin]
//       Convert a stream file between the text and binary formats.
//   vos checkpoint [--dataset=<name> | --in=<path>] --ckpt=<path>
//           [--stop-at=0.5] [--shards=4] [--producers=2] [--threads=2]
//           [--k=256] [--m=262144] [--seed=99]
//       Ingest the first stop-at fraction of the stream into a sharded
//       VOS sketch and atomically checkpoint it (shards, dense remap,
//       per-lane watermarks).
//   vos restore [--dataset=<name> | --in=<path>] --ckpt=<path>
//           [--verify-full] [same sizing flags as checkpoint]
//       Restore the checkpoint (typically in a fresh process), replay
//       each producer lane from its watermark to the end of the stream,
//       and print the recovered state. With --verify-full also ingest
//       the whole stream from scratch and fail unless the recovered
//       sketch is bit-identical.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv_writer.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "core/sharded_vos_sketch.h"
#include "harness/experiment.h"
#include "stream/binary_io.h"
#include "stream/dataset.h"
#include "stream/replayer.h"
#include "stream/stream_io.h"
#include "stream/stream_stats.h"

namespace vos::cli {
namespace {

constexpr char kUsage[] =
    "usage: vos <datasets|generate|inspect|run|convert|checkpoint|restore>"
    " [--flags]\n"
    "  vos datasets\n"
    "  vos generate --dataset=youtube_s [--scale=0.5] --out=s.bin "
    "[--format=bin]\n"
    "  vos inspect  --in=s.bin | --dataset=toy\n"
    "  vos run      --dataset=toy [--methods=MinHash,OPH,RP,VOS] [--k=100]\n"
    "  vos convert  --in=s.txt --out=s.bin --format=bin\n"
    "  vos checkpoint --dataset=toy --ckpt=c.vos [--stop-at=0.5] "
    "[--shards=4] [--producers=2]\n"
    "  vos restore  --dataset=toy --ckpt=c.vos [--verify-full]\n";

void PrintError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
}

/// Loads a stream per --in (format sniffed from the magic) or --dataset
/// (+ --scale).
StatusOr<stream::GraphStream> ResolveStream(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  if (!in.empty()) {
    auto binary = stream::LoadStreamBinary(in);
    if (binary.ok()) return binary;
    // Fall back to the text loader; report its error if both fail.
    auto text = stream::LoadStream(in);
    if (text.ok()) return text;
    return Status::InvalidArgument(in + ": not a stream file (binary: " +
                                   binary.status().ToString() +
                                   "; text: " + text.status().ToString() +
                                   ")");
  }
  const std::string name = flags.GetString("dataset", "");
  if (name.empty()) {
    return Status::InvalidArgument("one of --in or --dataset is required");
  }
  VOS_ASSIGN_OR_RETURN(auto spec, stream::GetDatasetSpec(name));
  const double scale = flags.GetDouble("scale", 1.0);
  if (scale != 1.0) spec = stream::ScaleSpec(spec, scale);
  return stream::GenerateDataset(spec);
}

int CmdDatasets() {
  TablePrinter table({"name", "users", "items", "base_edges",
                      "deletion_period", "deletion_fraction"});
  for (const std::string& name : stream::ListDatasets()) {
    const auto spec = stream::GetDatasetSpec(name);
    VOS_CHECK(spec.ok());
    table.AddRow({name, TablePrinter::FormatInt(spec->graph.num_users),
                  TablePrinter::FormatInt(spec->graph.num_items),
                  TablePrinter::FormatInt(spec->graph.num_edges),
                  TablePrinter::FormatInt(spec->dynamics.deletion_period),
                  TablePrinter::FormatDouble(
                      spec->dynamics.deletion_fraction, 3)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  auto stream = ResolveStream(flags);
  if (!stream.ok()) {
    PrintError(stream.status());
    return 2;
  }
  const std::string format = flags.GetString("format", "bin");
  const Status status = format == "text"
                            ? stream::SaveStream(*stream, out)
                            : stream::SaveStreamBinary(*stream, out);
  if (!status.ok()) {
    PrintError(status);
    return 1;
  }
  std::printf("wrote %zu elements (%s) to %s\n", stream->size(),
              format.c_str(), out.c_str());
  return 0;
}

int CmdInspect(const Flags& flags) {
  auto stream = ResolveStream(flags);
  if (!stream.ok()) {
    PrintError(stream.status());
    return 2;
  }
  const stream::StreamProfile profile = stream::ProfileStream(*stream);
  std::printf("stream   %s  (|U|=%u, |I|=%u)\n", stream->name().c_str(),
              stream->num_users(), stream->num_items());
  std::printf("elements %zu  (+%zu / -%zu), final edges %zu, peak %zu\n\n",
              profile.stats.num_elements, profile.stats.num_insertions,
              profile.stats.num_deletions, profile.stats.final_edges,
              profile.peak_edges);
  TablePrinter table(
      {"degrees", "count", "mean", "median", "p90", "p99", "max"});
  auto add = [&table](const char* label,
                      const stream::DegreeSummary& summary) {
    table.AddRow({label, TablePrinter::FormatInt(summary.count),
                  TablePrinter::FormatDouble(summary.mean, 4),
                  TablePrinter::FormatInt(summary.median),
                  TablePrinter::FormatInt(summary.p90),
                  TablePrinter::FormatInt(summary.p99),
                  TablePrinter::FormatInt(summary.max)});
  };
  add("user |S_u|", profile.user_degrees);
  add("item popularity", profile.item_degrees);
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

int CmdRun(const Flags& flags) {
  auto stream = ResolveStream(flags);
  if (!stream.ok()) {
    PrintError(stream.status());
    return 2;
  }
  harness::ExperimentConfig config;
  config.top_users = static_cast<size_t>(flags.GetInt("top-users", 300));
  config.max_pairs = static_cast<size_t>(flags.GetInt("max-pairs", 20000));
  config.num_checkpoints =
      static_cast<size_t>(flags.GetInt("checkpoints", 5));
  config.factory.base_k = static_cast<uint32_t>(flags.GetInt("k", 100));
  config.factory.lambda = flags.GetDouble("lambda", 2.0);
  config.factory.seed = static_cast<uint64_t>(flags.GetInt("seed", 99));

  const std::vector<std::string> methods = SplitCsv(
      flags.GetString("methods", "MinHash,OPH,RP,VOS"));
  auto result = harness::RunAccuracyExperiment(*stream, methods, config);
  if (!result.ok()) {
    PrintError(result.status());
    return 1;
  }
  std::printf("stream %s: %zu elements; %zu tracked users, %zu pairs; "
              "k=%u lambda=%g\n\n",
              result->stream_name.c_str(), result->stream_elements,
              result->tracked_users, result->tracked_pairs,
              config.factory.base_k, config.factory.lambda);
  std::vector<std::string> header = {"t", "live_edges", "method", "AAPE",
                                     "ARMSE"};
  TablePrinter table(header);
  std::vector<std::vector<std::string>> rows;
  for (const harness::Checkpoint& cp : result->checkpoints) {
    for (const harness::MethodCheckpoint& mc : cp.methods) {
      std::vector<std::string> row = {
          TablePrinter::FormatInt(cp.t),
          TablePrinter::FormatInt(cp.live_edges), mc.method,
          TablePrinter::FormatDouble(mc.metrics.aape, 4),
          TablePrinter::FormatDouble(mc.metrics.armse, 4)};
      table.AddRow(row);
      rows.push_back(std::move(row));
    }
  }
  std::fputs(table.ToString().c_str(), stdout);

  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    auto csv = CsvWriter::Open(csv_path, header);
    if (!csv.ok()) {
      PrintError(csv.status());
      return 1;
    }
    for (const auto& row : rows) {
      if (Status s = csv->WriteRow(row); !s.ok()) {
        PrintError(s);
        return 1;
      }
    }
    (void)csv->Close();
    std::printf("\n(csv mirrored to %s)\n", csv_path.c_str());
  }
  return 0;
}

int CmdConvert(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (flags.GetString("in", "").empty() || out.empty()) {
    std::fprintf(stderr, "convert: --in and --out are required\n");
    return 2;
  }
  auto stream = ResolveStream(flags);
  if (!stream.ok()) {
    PrintError(stream.status());
    return 2;
  }
  const std::string format = flags.GetString("format", "bin");
  const Status status = format == "text"
                            ? stream::SaveStream(*stream, out)
                            : stream::SaveStreamBinary(*stream, out);
  if (!status.ok()) {
    PrintError(status);
    return 1;
  }
  std::printf("converted %zu elements to %s (%s)\n", stream->size(),
              out.c_str(), format.c_str());
  return 0;
}

/// Shared sizing flags of the checkpoint/restore pair. Both processes
/// must pass the same values — the checkpoint manifest enforces it.
core::ShardedVosConfig MakeShardedConfig(const Flags& flags) {
  core::ShardedVosConfig config;
  config.base.k = static_cast<uint32_t>(flags.GetInt("k", 256));
  config.base.m = static_cast<uint64_t>(flags.GetInt("m", 1 << 18));
  config.base.seed = static_cast<uint64_t>(flags.GetInt("seed", 99));
  config.num_shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  config.ingest_threads = static_cast<unsigned>(flags.GetInt("threads", 2));
  config.ingest_producers =
      static_cast<unsigned>(flags.GetInt("producers", 2));
  return config;
}

/// Feeds each lane's elements from `start[p]` to its end, then flushes.
Status ReplayLanes(core::ShardedVosSketch* sketch,
                   const std::vector<std::vector<stream::Element>>& lanes,
                   const std::vector<uint64_t>& start) {
  for (unsigned p = 0; p < lanes.size(); ++p) {
    stream::StreamReplayer::ReplayBatchedFrom(
        lanes[p].data(), lanes[p].size(), start[p], 512,
        [&](const stream::Element* batch, size_t count) {
          sketch->UpdateBatch(batch, count, p);
        });
  }
  return sketch->Flush();
}

int CmdCheckpoint(const Flags& flags) {
  const std::string ckpt = flags.GetString("ckpt", "");
  if (ckpt.empty()) {
    std::fprintf(stderr, "checkpoint: --ckpt is required\n");
    return 2;
  }
  auto stream = ResolveStream(flags);
  if (!stream.ok()) {
    PrintError(stream.status());
    return 2;
  }
  const double stop_at =
      std::min(1.0, std::max(0.0, flags.GetDouble("stop-at", 0.5)));
  const size_t cut = static_cast<size_t>(
      static_cast<double>(stream->size()) * stop_at);
  const core::ShardedVosConfig config = MakeShardedConfig(flags);
  core::ShardedVosSketch sketch(config, stream->num_users());
  // The canonical lane split (user % lanes) over the stream PREFIX: the
  // split of a prefix is a prefix of each lane, so the restore side can
  // split the full stream with the same rule and resume each lane at its
  // checkpointed watermark.
  const auto lanes = stream::StreamReplayer::SplitByUserLane(
      stream->elements().data(), cut, sketch.num_producers());
  if (Status s = ReplayLanes(&sketch, lanes,
                             std::vector<uint64_t>(lanes.size(), 0));
      !s.ok()) {
    PrintError(s);
    return 1;
  }
  if (Status s = sketch.Checkpoint(ckpt); !s.ok()) {
    PrintError(s);
    return 1;
  }
  std::printf("checkpointed %zu of %zu elements to %s (lanes:", cut,
              stream->size(), ckpt.c_str());
  for (uint64_t w : sketch.ingest_watermarks()) {
    std::printf(" %llu", static_cast<unsigned long long>(w));
  }
  std::printf(")\n");
  return 0;
}

int CmdRestore(const Flags& flags) {
  const std::string ckpt = flags.GetString("ckpt", "");
  if (ckpt.empty()) {
    std::fprintf(stderr, "restore: --ckpt is required\n");
    return 2;
  }
  auto stream = ResolveStream(flags);
  if (!stream.ok()) {
    PrintError(stream.status());
    return 2;
  }
  const core::ShardedVosConfig config = MakeShardedConfig(flags);
  core::ShardedVosSketch sketch(config, stream->num_users());
  if (Status s = sketch.Restore(ckpt); !s.ok()) {
    PrintError(s);
    return 1;
  }
  const std::vector<uint64_t> watermarks = sketch.ingest_watermarks();
  const auto lanes = stream::StreamReplayer::SplitByUserLane(
      stream->elements().data(), stream->size(), sketch.num_producers());
  if (Status s = ReplayLanes(&sketch, lanes, watermarks); !s.ok()) {
    PrintError(s);
    return 1;
  }
  std::printf("restored %s and replayed", ckpt.c_str());
  for (unsigned p = 0; p < lanes.size(); ++p) {
    std::printf(" %zu", lanes[p].size() - static_cast<size_t>(watermarks[p]));
  }
  std::printf(" elements across %u lanes\n", sketch.num_producers());
  for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
    std::printf("shard %u: beta=%.6f users=%u\n", s, sketch.shard(s).beta(),
                sketch.shard(s).num_users());
  }
  if (!flags.GetBool("verify-full", false)) return 0;

  // Reference: the whole stream ingested from scratch in this process.
  core::ShardedVosSketch reference(config, stream->num_users());
  if (Status s = ReplayLanes(&reference, lanes,
                             std::vector<uint64_t>(lanes.size(), 0));
      !s.ok()) {
    PrintError(s);
    return 1;
  }
  for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
    if (sketch.shard(s).array().words() !=
        reference.shard(s).array().words()) {
      std::fprintf(stderr,
                   "verify-full: shard %u array differs from the "
                   "uninterrupted run\n",
                   s);
      return 1;
    }
  }
  for (stream::UserId u = 0; u < stream->num_users(); ++u) {
    if (sketch.Cardinality(u) != reference.Cardinality(u)) {
      std::fprintf(stderr,
                   "verify-full: cardinality of user %u differs from the "
                   "uninterrupted run\n",
                   u);
      return 1;
    }
  }
  std::printf("verify-full: recovered state is bit-identical to the "
              "uninterrupted run\n");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string command = argv[1];
  auto flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    PrintError(flags.status());
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (command == "datasets") return CmdDatasets();
  if (command == "generate") return CmdGenerate(*flags);
  if (command == "inspect") return CmdInspect(*flags);
  if (command == "run") return CmdRun(*flags);
  if (command == "convert") return CmdConvert(*flags);
  if (command == "checkpoint") return CmdCheckpoint(*flags);
  if (command == "restore") return CmdRestore(*flags);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}

}  // namespace
}  // namespace vos::cli

int main(int argc, char** argv) { return vos::cli::Main(argc, argv); }
