// Key=value configuration files.
//
// The paper (Sec. IV-A): "Our design is easily configurable: a simple
// configuration file sets, at compile time, the required DSE parameters."
// This parser reads the same style of file at run time for the simulator:
// `key = value` lines, `#` comments, whitespace-insensitive.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace polymem {

class ConfigFile {
 public:
  /// Parses `text`; throws InvalidArgument on malformed lines.
  static ConfigFile parse(const std::string& text);

  /// Loads and parses a file; throws InvalidArgument if unreadable.
  static ConfigFile load(const std::string& path);

  bool has(const std::string& key) const;

  /// Typed getters; throw InvalidArgument when the key is missing or the
  /// value does not parse. The `_or` variants return `fallback` when missing
  /// (but still throw on unparsable values). Integers are read as
  /// get_string + parse_decimal.
  std::string get_string(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;
  double get_double_or(const std::string& key, double fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& entries() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

/// Parses all of `text` as a base-10 integer: an optional '-' then digits,
/// with no '+', spaces, base prefix or trailing characters. nullopt for
/// anything else, or when the value does not fit in 64 bits. The CLIs use
/// it for numeric flags.
std::optional<std::int64_t> parse_decimal(const std::string& text);

}  // namespace polymem
