#include "util/flags.h"

#include <cstdio>
#include <stdexcept>

namespace ttmqo {
namespace {

bool LooksLikeFlag(const std::string& arg) {
  return arg.size() > 2 && arg.rfind("--", 0) == 0;
}

}  // namespace

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    std::string name;
    std::string value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      name = std::move(arg);
      value = argv[++i];
    } else {
      name = std::move(arg);
      value = "true";  // bare boolean flag
    }
    flags.repeated_[name].push_back(value);
    flags.values_[name] = {std::move(value), false};
  }
  return flags;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return it->second.first;
}

std::optional<std::string> Flags::GetOptional(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  it->second.second = true;
  return it->second.first;
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return IntOrThrow("flag --" + name, it->second.first);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return NumberOrThrow("flag --" + name, it->second.first);
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  const std::string& v = it->second.first;
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              v + "'");
}

std::vector<std::string> Flags::GetAll(const std::string& name) const {
  const auto it = repeated_.find(name);
  if (it == repeated_.end()) return {};
  values_[name].second = true;
  return it->second;
}

bool Flags::Has(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return false;
  it->second.second = true;
  return true;
}

std::vector<std::string> Flags::UnreadFlags() const {
  std::vector<std::string> unread;
  for (const auto& [name, entry] : values_) {
    if (!entry.second) unread.push_back(name);
  }
  return unread;
}

std::optional<std::int64_t> ParseWholeInt(const std::string& text) {
  // The whole string must parse: stoll alone reads "5e5" as 5.
  try {
    std::size_t used = 0;
    const std::int64_t parsed = std::stoll(text, &used);
    if (used == text.size()) return parsed;
  } catch (const std::exception&) {
    // Not a number, or out of range: the same answer as a partial parse.
  }
  return std::nullopt;
}

std::optional<double> ParseWholeNumber(const std::string& text) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(text, &used);
    if (used == text.size()) return parsed;
  } catch (const std::exception&) {
    // Not a number, or out of range: the same answer as a partial parse.
  }
  return std::nullopt;
}

std::int64_t IntOrThrow(const std::string& what, const std::string& text) {
  if (const auto parsed = ParseWholeInt(text)) return *parsed;
  throw std::invalid_argument(what + " expects an integer, got '" + text +
                              "'");
}

double NumberOrThrow(const std::string& what, const std::string& text) {
  if (const auto parsed = ParseWholeNumber(text)) return *parsed;
  throw std::invalid_argument(what + " expects a number, got '" + text + "'");
}

std::size_t PositiveCount(const Flags& flags, const std::string& name,
                          std::int64_t fallback) {
  const std::int64_t value = flags.GetInt(name, fallback);
  if (value <= 0) {
    throw std::invalid_argument("--" + name + " must be positive, got " +
                                std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

bool ReportUnreadFlags(const Flags& flags) {
  const std::vector<std::string> unread = flags.UnreadFlags();
  for (const std::string& name : unread) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
  }
  return !unread.empty();
}

}  // namespace ttmqo
