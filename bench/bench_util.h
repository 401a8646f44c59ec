// Shared plumbing for the figure-reproduction bench binaries.
//
// Every fig*/ablation* binary follows the same skeleton: parse flags,
// resolve a dataset (optionally scaled), run, print an aligned table, and
// optionally mirror the rows into a CSV (--csv=<path>). This header keeps
// that skeleton in one place; the per-figure logic stays in each binary.

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/csv_writer.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "stream/dataset.h"

namespace vos::bench {

/// Parses flags or exits with the error and a usage hint.
inline Flags ParseFlagsOrDie(int argc, char** argv, const char* usage) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\nusage: %s %s\n",
                 flags.status().ToString().c_str(), argv[0], usage);
    std::exit(2);
  }
  return *std::move(flags);
}

/// Resolves `--dataset` (+ optional `--scale`) to a generated stream, or
/// exits. `def` is the default dataset name.
inline stream::GraphStream DatasetOrDie(const Flags& flags,
                                        const std::string& def) {
  const std::string name = flags.GetString("dataset", def);
  auto spec = stream::GetDatasetSpec(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    std::exit(2);
  }
  const double scale = flags.GetDouble("scale", 1.0);
  if (scale != 1.0) *spec = stream::ScaleSpec(*spec, scale);
  return stream::GenerateDataset(*spec);
}

/// Prints the table and mirrors it to --csv if given.
inline void EmitTable(const Flags& flags, const TablePrinter& table,
                      const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  std::fputs(table.ToString().c_str(), stdout);
  const std::string csv_path = flags.GetString("csv", "");
  if (csv_path.empty()) return;
  auto csv = CsvWriter::Open(csv_path, header);
  if (!csv.ok()) {
    std::fprintf(stderr, "warning: %s\n", csv.status().ToString().c_str());
    return;
  }
  for (const auto& row : rows) {
    if (auto s = csv->WriteRow(row); !s.ok()) {
      std::fprintf(stderr, "warning: %s\n", s.ToString().c_str());
      return;
    }
  }
  (void)csv->Close();
  std::printf("\n(csv mirrored to %s)\n", csv_path.c_str());
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// True when `s` conforms to the JSON number grammar (emit unquoted).
/// Deliberately stricter than strtod: hex floats, inf/nan, leading '+',
/// and bare '.5'/'5.' are all valid C parses but invalid JSON.
inline bool LooksNumeric(const std::string& s) {
  size_t i = 0;
  const auto digits = [&] {
    const size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (!digits()) return false;
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

/// Mirrors the table rows to --json=<path> as an array of objects (one
/// per row, keys from `header`, plus "bench": `bench_name`), so the perf
/// trajectory of every bench can be collected as BENCH_*.json files and
/// diffed across PRs. Numeric-looking cells are written as JSON numbers.
inline void MaybeEmitJson(const Flags& flags, const std::string& bench_name,
                          const std::vector<std::string>& header,
                          const std::vector<std::vector<std::string>>& rows) {
  const std::string json_path = flags.GetString("json", "");
  if (json_path.empty()) return;
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot open %s for writing\n",
                 json_path.c_str());
    return;
  }
  std::fputs("[\n", out);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(out, "  {\"bench\": \"%s\"", JsonEscape(bench_name).c_str());
    for (size_t c = 0; c < header.size() && c < rows[r].size(); ++c) {
      const std::string& value = rows[r][c];
      if (LooksNumeric(value)) {
        std::fprintf(out, ", \"%s\": %s", JsonEscape(header[c]).c_str(),
                     value.c_str());
      } else {
        std::fprintf(out, ", \"%s\": \"%s\"", JsonEscape(header[c]).c_str(),
                     JsonEscape(value).c_str());
      }
    }
    std::fprintf(out, "}%s\n", r + 1 < rows.size() ? "," : "");
  }
  std::fputs("]\n", out);
  std::fclose(out);
  std::printf("\n(json mirrored to %s)\n", json_path.c_str());
}

/// Standard experiment banner: what this binary reproduces and with which
/// configuration, so a saved log says what produced it.
inline void PrintBanner(const std::string& title, const Flags& flags) {
  std::printf("=== %s ===\n", title.c_str());
  if (!flags.values().empty()) {
    std::printf("flags:");
    for (const auto& [k, v] : flags.values()) {
      std::printf(" --%s=%s", k.c_str(), v.c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

/// A timed bench row: seconds per run, and how many runs that is the
/// median of (1 when a slow first run is reported alone).
struct StableTime {
  double seconds = 0.0;
  int reps = 0;
};

/// Times `run` (a callable returning StatusOr<double> seconds, e.g. one
/// harness::MeasureUpdateRuntime call) so that a row resolves a 10%
/// change on a shared host. A first run of 0.5 s or more is reported as
/// is, so slow rows do not multiply the bench's run time. Otherwise the
/// first run is a warm-up, and `run` repeats until the reps total at least
/// 0.5 s (at most 21 reps); the median is reported.
template <typename Run>
StatusOr<StableTime> TimeUntilStable(const Run& run) {
  constexpr double kBudgetSeconds = 0.5;
  constexpr size_t kMaxReps = 21;
  VOS_ASSIGN_OR_RETURN(const double first, run());
  if (first >= kBudgetSeconds) return StableTime{first, 1};
  std::vector<double> times;
  double total = 0.0;
  while (total < kBudgetSeconds && times.size() < kMaxReps) {
    VOS_ASSIGN_OR_RETURN(const double seconds, run());
    times.push_back(seconds);
    total += seconds;
  }
  std::sort(times.begin(), times.end());
  const size_t n = times.size();
  return StableTime{(times[(n - 1) / 2] + times[n / 2]) / 2,
                    static_cast<int>(n)};
}

}  // namespace vos::bench
