// Minimal command-line flag parsing for bench and example binaries.
//
// Supports `--name=value` and `--name value`; unknown flags are an error so
// typos in experiment scripts fail loudly instead of silently running the
// default configuration.

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace vos {

/// Parses argv into a name→value map and serves typed lookups with defaults.
class Flags {
 public:
  /// Parses `argv[1..argc)`. Returns InvalidArgument on malformed input
  /// (non-flag positional argument, or `--name` with no value).
  static StatusOr<Flags> Parse(int argc, char** argv);

  /// True if the flag was supplied on the command line.
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// Typed getters; return `def` when the flag is absent. Abort via
  /// VOS_CHECK when the supplied value does not parse, is empty, or is
  /// out of the type's range — a misconfigured experiment must not run.
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// All parsed flags (for echoing the configuration in bench output).
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace vos
