#include "common/cli.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace wimpi {

namespace {

// A flag value that does not parse completely is a usage error: exit 2
// rather than run with a silently truncated or zeroed value.
[[noreturn]] void InvalidValue(const std::string& name,
                               const std::string& text) {
  std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
               text.c_str());
  std::exit(2);
}

}  // namespace

CommandLine::CommandLine(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) !=
                                   "--") {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

bool CommandLine::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

int64_t CommandLine::GetInt(const std::string& name, int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& text = it->second;
  int64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) {
    InvalidValue(name, text);
  }
  return v;
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& text = it->second;
  double v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() ||
      !std::isfinite(v)) {
    InvalidValue(name, text);
  }
  return v;
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  InvalidValue(name, text);
}

}  // namespace wimpi
