#include "common/flags.h"

#include <cerrno>
#include <cstdlib>

namespace vos {

StatusOr<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("positional argument not allowed: " +
                                     arg);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` form; a bare trailing `--name` is treated as boolean
    // true, matching common CLI conventions.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";
    }
  }
  return flags;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const int64_t v = std::strtoll(text.c_str(), &end, 10);
  VOS_CHECK(!text.empty() && end == text.c_str() + text.size() &&
            errno != ERANGE)
      << "flag --" << name << " is not an integer in int64 range:" << text;
  return v;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  VOS_CHECK(!text.empty() && end == text.c_str() + text.size() &&
            errno != ERANGE)
      << "flag --" << name << " is not a number in double range:" << text;
  return v;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  VOS_CHECK(false) << "flag --" << name << " is not a boolean:" << v;
  return def;
}

}  // namespace vos
