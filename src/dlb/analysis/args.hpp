// Minimal `key=value` command-line argument parser for the example binaries
// and one-off experiment drivers. Not a general-purpose CLI library — just
// enough to make simulations scriptable.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dlb/common/types.hpp"

namespace dlb::analysis {

class arg_map {
 public:
  /// Parses `key=value` tokens; bare tokens become flags that carry no
  /// value (has() is true, the value getters throw).
  /// Dashed tokens are also accepted (`--key=value`, `--key value`, and
  /// `--flag`); leading dashes are stripped from the stored key, so
  /// `--master-seed 7` and `master-seed=7` are interchangeable. A dashed key
  /// consumes the following token as its value unless that token is itself
  /// a key — dash-led or `key=value` shaped. Negative numbers like `-5` or
  /// `-.5` still count as values; values that are dash-led or contain `=`
  /// need the `--key=value` spelling. Throws contract_violation on
  /// duplicate keys or empty keys.
  arg_map(int argc, const char* const* argv);

  /// Builds from pre-split tokens (testing convenience).
  explicit arg_map(const std::vector<std::string>& tokens);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Value lookups with defaults; numeric getters throw on non-numeric text.
  /// All three throw contract_violation ("argument 'k' needs a value") for
  /// a key given as a bare flag, so `--out` alone never becomes a file
  /// named "true".
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_real(const std::string& key,
                                double fallback) const;

  /// Keys the caller never consumed — used to reject typos.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

 private:
  void parse(const std::vector<std::string>& tokens);
  void insert_pair(std::string key, std::optional<std::string> value);

  /// Marks `key` consumed; nullptr when absent, throws when it is a bare flag.
  [[nodiscard]] const std::string* value_of(const std::string& key) const;

  std::map<std::string, std::optional<std::string>> values_;  // nullopt = bare
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace dlb::analysis
