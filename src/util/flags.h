// A tiny command-line flag parser for benchmark and example binaries.
//
// Accepts `--name=value` and `--name value`; unknown flags are an error so
// that experiment scripts fail loudly on typos.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ttmqo {

/// Parsed command-line flags.
class Flags {
 public:
  /// Parses argv.  Throws `std::invalid_argument` on malformed input.
  static Flags Parse(int argc, const char* const* argv);

  /// Returns the flag value or `fallback` when absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Returns the flag value, or nullopt when absent.  For output-path
  /// flags (`--metrics-out=`, `--trace-out=`) where absence means "off"
  /// and the empty string is not a usable sentinel.
  std::optional<std::string> GetOptional(const std::string& name) const;

  /// Returns the flag as int64 or `fallback` when absent; throws when the
  /// value is present but is not an integer as a whole ("4x", "5e5").
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;

  /// Returns the flag as double or `fallback` when absent; throws when the
  /// value is present but is not a number as a whole ("0.02abc").
  double GetDouble(const std::string& name, double fallback) const;

  /// Returns the flag as bool ("true"/"false"/"1"/"0"); bare `--name` is true.
  bool GetBool(const std::string& name, bool fallback) const;

  /// Every occurrence of a repeatable flag, in command-line order (e.g.
  /// `--fail=3@5000 --fail=7@9000`); empty when the flag is absent.  The
  /// single-value getters see the last occurrence.
  std::vector<std::string> GetAll(const std::string& name) const;

  /// True when the flag was supplied.
  bool Has(const std::string& name) const;

  /// Flag names that were supplied but never read; used to reject typos.
  std::vector<std::string> UnreadFlags() const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  mutable std::map<std::string, std::pair<std::string, bool>> values_;
  /// Every occurrence per flag, for repeatable flags.
  std::map<std::string, std::vector<std::string>> repeated_;
  std::vector<std::string> positional_;
};

/// The whole of `text` as an integer; nullopt when any of it is not one
/// ("4x", "5e5", "") or the value lies outside int64.
std::optional<std::int64_t> ParseWholeInt(const std::string& text);

/// The whole of `text` as a number; nullopt when any of it is not one
/// ("0.02abc", "") or the value lies outside double's range.
std::optional<double> ParseWholeNumber(const std::string& text);

/// `ParseWholeInt(text)`, or throws `std::invalid_argument` with
/// "<what> expects an integer, got '<text>'".
std::int64_t IntOrThrow(const std::string& what, const std::string& text);

/// `ParseWholeNumber(text)`, or throws `std::invalid_argument` with
/// "<what> expects a number, got '<text>'".
double NumberOrThrow(const std::string& what, const std::string& text);

/// Prints "unknown flag --name" to stderr for every flag that was supplied
/// but never read.  Returns true when any were present, so a `main` can
/// end its flag-reading block with
///   if (ReportUnreadFlags(flags)) return 2;
/// instead of re-implementing the rejection loop.
bool ReportUnreadFlags(const Flags& flags);

}  // namespace ttmqo
