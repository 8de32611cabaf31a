#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

#include "common/error.hpp"

namespace polymem::json {

void Writer::next_line() {
  out_ << (open_.back().empty ? "\n" : ",\n")
       << std::string(2 * open_.size(), ' ');
  open_.back().empty = false;
}

void Writer::element() {
  if (keyed_) {
    keyed_ = false;
  } else if (!open_.empty()) {
    POLYMEM_REQUIRE(!open_.back().object, "JSON object member needs a key");
    next_line();
  }
}

void Writer::key(std::string_view name) {
  POLYMEM_REQUIRE(!open_.empty() && open_.back().object && !keyed_,
                  "JSON key outside an object");
  next_line();
  string(name);
  out_ << ": ";
  keyed_ = true;
}

Writer& Writer::open(char bracket, bool object) {
  element();
  out_ << bracket;
  open_.push_back({object, true});
  return *this;
}

Writer& Writer::end() {
  POLYMEM_REQUIRE(!open_.empty() && !keyed_, "JSON end outside a container");
  const Level level = open_.back();
  open_.pop_back();
  if (!level.empty) out_ << '\n' << std::string(2 * open_.size(), ' ');
  out_ << (level.object ? '}' : ']');
  if (open_.empty()) out_ << '\n';
  return *this;
}

Writer& Writer::raw(const char* text) {
  element();
  out_ << text;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  element();
  string(s);
  return *this;
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return raw("null");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return raw(buf);
}

Writer& Writer::value(Fixed v) {
  POLYMEM_REQUIRE(v.decimals >= 0 && v.decimals <= 9,
                  "json::Fixed takes 0 to 9 decimals");
  if (!std::isfinite(v.value)) return raw("null");
  char buf[330];  // DBL_MAX has 309 integer digits
  std::snprintf(buf, sizeof buf, "%.*f", v.decimals, v.value);
  return raw(buf);
}

void Writer::string(std::string_view s) {
  out_ << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ << "\\\""; break;
      case '\\': out_ << "\\\\"; break;
      case '\n': out_ << "\\n"; break;
      case '\t': out_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out_ << buf;
        } else {
          out_ << c;
        }
    }
  }
  out_ << '"';
}

}  // namespace polymem::json
