// Streaming JSON writer shared by the bench runners (the BENCH_*.json
// files) and the CLIs' --format=json output. One member or element per
// line, two spaces of indent per level, keys printed as `"key": value`;
// strings are escaped, doubles print as `%.4g` (non-finite ones as null),
// and closing the root ends the document with a newline.
//
//   json::Writer w(std::cout);
//   w.begin_object().field("ok", true);
//   w.begin_array("runs").value(3).end();
//   w.end();
#pragma once

#include <concepts>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace polymem::json {

/// A double printed with `decimals` digits after the point (`%.Nf`), for
/// fields whose committed files carry a fixed precision: unlike `%.4g`,
/// an integral value still prints as a JSON float (`128.00`).
struct Fixed {
  double value;
  int decimals;
};

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  /// Opens a container: as an array element or the root (no name), or as
  /// the member `name` of the enclosing object.
  Writer& begin_object() { return open('{', true); }
  Writer& begin_array() { return open('[', false); }
  Writer& begin_object(std::string_view name) {
    key(name);
    return begin_object();
  }
  Writer& begin_array(std::string_view name) {
    key(name);
    return begin_array();
  }
  /// Closes the innermost open container.
  Writer& end();

  /// Array elements.
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(double v);
  Writer& value(Fixed v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T v) {
    return raw(std::to_string(v).c_str());
  }

  /// Object members.
  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

 private:
  struct Level {
    bool object;
    bool empty;
  };

  void next_line();  // separator, newline and indent inside a container
  void element();    // before any value: consumes a key or starts a line
  void key(std::string_view name);
  Writer& open(char bracket, bool object);
  Writer& raw(const char* text);
  void string(std::string_view s);

  std::ostream& out_;
  std::vector<Level> open_;
  bool keyed_ = false;  // a key was printed; its value comes next
};

}  // namespace polymem::json
