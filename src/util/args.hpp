#pragma once

/// \file args.hpp
/// Tiny command-line parser for the CLI driver and bench binaries:
/// --key=value / --key value / --flag, with typed accessors and defaults.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wakeup::util {

class Args {
 public:
  /// Parses argv; unknown positional arguments are collected in order.
  /// Throws std::invalid_argument on a malformed option ("--=x").
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// String value or default.
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const;

  /// Integer value or default; throws std::invalid_argument when the value
  /// is present but is not an integer in range, all of it ("4x", "2e3"
  /// and "64.5" throw).
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;

  /// Double value or default; throws std::invalid_argument when the value
  /// is present but is not a finite number, all of it.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;

  /// Flag: present with no value, or an explicit true/false value.
  [[nodiscard]] bool get_flag(const std::string& key) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace wakeup::util
