#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace polymem {

namespace {

std::string trim(const std::string& s) {
  auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  auto begin = std::find_if_not(s.begin(), s.end(), is_space);
  auto end = std::find_if_not(s.rbegin(), s.rend(), is_space).base();
  return (begin < end) ? std::string(begin, end) : std::string{};
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    POLYMEM_REQUIRE(eq != std::string::npos,
                    "config line " + std::to_string(lineno) +
                        " is not of the form key = value: '" + line + "'");
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    POLYMEM_REQUIRE(!key.empty(), "config line " + std::to_string(lineno) +
                                      " has an empty key");
    cfg.kv_[key] = value;
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  POLYMEM_REQUIRE(in.good(), "cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

bool ConfigFile::has(const std::string& key) const {
  return kv_.count(key) != 0;
}

std::string ConfigFile::get_string(const std::string& key) const {
  auto it = kv_.find(key);
  POLYMEM_REQUIRE(it != kv_.end(), "missing config key: " + key);
  return it->second;
}

double ConfigFile::get_double(const std::string& key) const {
  const std::string v = get_string(key);
  try {
    std::size_t pos = 0;
    double r = std::stod(v, &pos);
    POLYMEM_REQUIRE(pos == v.size(), "trailing characters in number for key " + key);
    return r;
  } catch (const std::logic_error&) {
    throw InvalidArgument("config key " + key + " is not a number: " + v);
  }
}

bool ConfigFile::get_bool(const std::string& key) const {
  const std::string v = lower(get_string(key));
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw InvalidArgument("config key " + key + " is not a boolean: " + v);
}

std::string ConfigFile::get_string_or(const std::string& key,
                                      const std::string& fallback) const {
  return has(key) ? get_string(key) : fallback;
}

double ConfigFile::get_double_or(const std::string& key,
                                 double fallback) const {
  return has(key) ? get_double(key) : fallback;
}

bool ConfigFile::get_bool_or(const std::string& key, bool fallback) const {
  return has(key) ? get_bool(key) : fallback;
}

std::optional<std::int64_t> parse_decimal(const std::string& text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [last, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || last != end) return std::nullopt;
  return value;
}

}  // namespace polymem
