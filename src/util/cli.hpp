// Tiny command-line option parser for benches and examples.
//
// Supports --key=value and --flag forms only; anything unrecognized is an
// error so typos in experiment parameters fail loudly instead of silently
// running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace resmatch::util {

class CliArgs {
 public:
  /// Parse argv. Throws std::runtime_error on malformed options.
  CliArgs(int argc, const char* const* argv);

  /// Typed getters with defaults. Throw std::runtime_error when the value
  /// is present but unparseable.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& key,
                                 std::int64_t fallback) const;
  [[nodiscard]] bool get(const std::string& key, bool fallback) const;

  /// Keys that were provided but never queried — callers may report them.
  [[nodiscard]] std::vector<std::string> unused() const;

  [[nodiscard]] const std::string& program() const noexcept {
    return program_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace resmatch::util
