#include "util/args.hpp"

#include <cmath>
#include <stdexcept>

namespace wakeup::util {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string key = body.substr(0, eq);
      if (key.empty()) throw std::invalid_argument("Args: malformed option '" + arg + "'");
      values_[key] = body.substr(eq + 1);
      continue;
    }
    if (body.empty()) throw std::invalid_argument("Args: malformed option '--'");
    // "--key value" when the next token is not itself an option; else flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";
    }
  }
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  try {
    std::size_t end = 0;
    const std::int64_t value = std::stoll(it->second, &end);
    if (end == it->second.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("Args: --" + key + " expects an integer, got '" + it->second + "'");
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  try {
    std::size_t end = 0;
    const double value = std::stod(it->second, &end);
    if (end == it->second.size() && std::isfinite(value)) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("Args: --" + key + " expects a finite number, got '" +
                              it->second + "'");
}

bool Args::get_flag(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return false;
  return it->second.empty() || it->second == "1" || it->second == "true" ||
         it->second == "yes";
}

}  // namespace wakeup::util
