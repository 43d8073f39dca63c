#include "util/cli.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace resmatch::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      throw std::runtime_error("unexpected positional argument: " +
                               std::string(arg));
    }
    const std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(body)] = "true";
    } else {
      values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
    }
  }
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double CliArgs::get(const std::string& key, double fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto parsed = parse_double(it->second);
  if (!parsed) throw std::runtime_error("--" + key + " expects a number");
  return *parsed;
}

std::int64_t CliArgs::get(const std::string& key,
                          std::int64_t fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto parsed = parse_int(it->second);
  if (!parsed) throw std::runtime_error("--" + key + " expects an integer");
  return *parsed;
}

bool CliArgs::get(const std::string& key, bool fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::runtime_error("--" + key + " expects true/false");
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!queried_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace resmatch::util
