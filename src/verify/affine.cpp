#include "verify/affine.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"

namespace polymem::verify {

using access::PatternKind;

namespace {

// The most lanes a grid may have (the bound maf::Maf enforces).
constexpr std::int64_t kMaxLanes = std::int64_t{1} << 20;

// Appends "± c*var" to the stream, eliding unit coefficients.
void append_term(std::ostringstream& os, bool& first, std::int64_t c,
                 const char* var) {
  if (c == 0) return;
  if (first) {
    if (c < 0) os << '-';
  } else {
    os << (c < 0 ? " - " : " + ");
  }
  const std::int64_t mag = c < 0 ? -c : c;
  if (mag != 1 || var == nullptr) {
    os << mag;
    if (var != nullptr) os << '*';
  }
  if (var != nullptr) os << var;
  first = false;
}

}  // namespace

std::string LaneExpr::str() const {
  std::ostringstream os;
  bool first = true;
  append_term(os, first, cu, "u");
  append_term(os, first, cv, "v");
  append_term(os, first, c0, nullptr);
  if (first) os << '0';
  return os.str();
}

AffinePattern::Box AffinePattern::bounding_box() const {
  Box box;
  bool first = true;
  for (int corner = 0; corner < 4; ++corner) {
    const std::int64_t u = (corner & 1) ? lanes_u - 1 : 0;
    const std::int64_t v = (corner & 2) ? lanes_v - 1 : 0;
    const std::int64_t ci = i.eval(u, v);
    const std::int64_t cj = j.eval(u, v);
    if (first) {
      box = {ci, ci, cj, cj};
      first = false;
    } else {
      box.min_i = std::min(box.min_i, ci);
      box.max_i = std::max(box.max_i, ci);
      box.min_j = std::min(box.min_j, cj);
      box.max_j = std::max(box.max_j, cj);
    }
  }
  return box;
}

std::string AffinePattern::invalid_reason() const {
  if (lanes_u < 1 || lanes_v < 1) {
    std::ostringstream os;
    os << "lane grid " << lanes_u << 'x' << lanes_v << " is empty";
    return os.str();
  }
  if (lanes_u > kMaxLanes / lanes_v) {  // count() > kMaxLanes, no overflow
    std::ostringstream os;
    os << "lane grid " << lanes_u << 'x' << lanes_v << " exceeds "
       << kMaxLanes << " lanes";
    return os.str();
  }
  return {};
}

std::string AffinePattern::spec() const {
  std::ostringstream os;
  os << "lanes " << lanes_u << 'x' << lanes_v << " ; i = " << i.str()
     << " ; j = " << j.str();
  return os.str();
}

AffinePattern AffinePattern::of(PatternKind kind, unsigned p, unsigned q) {
  const auto n = static_cast<std::int64_t>(p) * q;
  AffinePattern pat;
  pat.name = access::pattern_name(kind);
  switch (kind) {
    case PatternKind::kRow:
      pat.lanes_u = 1;
      pat.lanes_v = n;
      pat.j = {0, 1, 0};
      return pat;
    case PatternKind::kCol:
      pat.lanes_u = n;
      pat.lanes_v = 1;
      pat.i = {1, 0, 0};
      return pat;
    case PatternKind::kRect:
      pat.lanes_u = p;
      pat.lanes_v = q;
      pat.i = {1, 0, 0};
      pat.j = {0, 1, 0};
      return pat;
    case PatternKind::kTRect:
      pat.lanes_u = q;
      pat.lanes_v = p;
      pat.i = {1, 0, 0};
      pat.j = {0, 1, 0};
      return pat;
    case PatternKind::kMainDiag:
      pat.lanes_u = n;
      pat.lanes_v = 1;
      pat.i = {1, 0, 0};
      pat.j = {1, 0, 0};
      return pat;
    case PatternKind::kSecDiag:
      pat.lanes_u = n;
      pat.lanes_v = 1;
      pat.i = {1, 0, 0};
      pat.j = {-1, 0, 0};
      return pat;
  }
  throw InvalidArgument("unknown pattern kind");
}

namespace {

[[noreturn]] void spec_fail(const std::string& text, const std::string& why) {
  throw InvalidArgument("cannot parse affine spec '" + text + "': " + why);
}

// Coefficients, constants and every accumulated term stay within +-2^31:
// over at most 2^20 lanes, at anchors within +-2^31, no lane offset or
// element coordinate then overflows int64.
constexpr std::int64_t kMaxTerm = std::int64_t{1} << 31;

void add_term(const std::string& text, const char* what, std::int64_t& acc,
              std::int64_t sign, std::int64_t coef) {
  if (coef > kMaxTerm)
    spec_fail(text, std::to_string(coef) + " is beyond +-2^31");
  acc += sign * coef;
  if (acc < -kMaxTerm || acc > kMaxTerm) {
    spec_fail(text, std::string(what) + " sums to " + std::to_string(acc) +
                        ", beyond +-2^31");
  }
}

// Splits the clause into tokens, treating = + - * as their own tokens so
// "i=3*v-1" and "i = 3 * v - 1" parse identically.
std::vector<std::string> lex(const std::string& clause) {
  std::vector<std::string> tokens;
  std::string cur;
  for (const char c : clause) {
    if (c == ' ' || c == '\t' || c == '=' || c == '+' || c == '-' ||
        c == '*') {
      if (!cur.empty()) tokens.push_back(cur);
      cur.clear();
      if (c != ' ' && c != '\t') tokens.emplace_back(1, c);
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) tokens.push_back(cur);
  return tokens;
}

bool parse_int(const std::string& tok, std::int64_t& out) {
  if (tok.empty()) return false;
  std::istringstream in(tok);
  // Extract into a local: a failed stream extraction zeroes its target,
  // which must not clobber `out` (callers keep their default on failure).
  std::int64_t value = 0;
  if (!(in >> value) || !in.eof()) return false;
  out = value;
  return true;
}

LaneExpr parse_expr(const std::string& text,
                    const std::vector<std::string>& tokens, std::size_t at) {
  LaneExpr expr;
  bool any = false;
  std::size_t t = at;
  while (t < tokens.size()) {
    std::int64_t sign = 1;
    while (t < tokens.size() && (tokens[t] == "+" || tokens[t] == "-")) {
      if (tokens[t] == "-") sign = -sign;
      ++t;
    }
    if (t >= tokens.size()) spec_fail(text, "dangling sign in expression");
    std::int64_t coef = 1;
    bool have_coef = false;
    if (parse_int(tokens[t], coef)) {
      have_coef = true;
      ++t;
      if (t < tokens.size() && tokens[t] == "*") {
        ++t;
        if (t >= tokens.size()) spec_fail(text, "dangling '*' in expression");
      } else {
        add_term(text, "the constant", expr.c0, sign, coef);
        any = true;
        continue;
      }
    }
    if (tokens[t] == "u") {
      add_term(text, "the u coefficient", expr.cu, sign, coef);
    } else if (tokens[t] == "v") {
      add_term(text, "the v coefficient", expr.cv, sign, coef);
    } else {
      spec_fail(text, "expected 'u' or 'v', got '" + tokens[t] + "'" +
                          (have_coef ? " after coefficient" : ""));
    }
    ++t;
    any = true;
  }
  if (!any) spec_fail(text, "empty expression");
  return expr;
}

}  // namespace

AffinePattern AffinePattern::parse(const std::string& text) {
  // Clauses are ';'-separated: lanes UxV ; i = expr ; j = expr.
  std::vector<std::string> clauses;
  std::string cur;
  for (const char c : text) {
    if (c == ';') {
      clauses.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  clauses.push_back(cur);

  AffinePattern pat;
  bool saw_lanes = false, saw_i = false, saw_j = false;
  for (const std::string& clause : clauses) {
    const auto tokens = lex(clause);
    if (tokens.empty()) continue;
    if (tokens[0] == "lanes") {
      if (tokens.size() != 2) spec_fail(text, "expected 'lanes <U>x<V>'");
      const std::string& dims = tokens[1];
      const auto x = dims.find('x');
      if (x == std::string::npos ||
          !parse_int(dims.substr(0, x), pat.lanes_u) ||
          !parse_int(dims.substr(x + 1), pat.lanes_v))
        spec_fail(text, "expected 'lanes <U>x<V>', got '" + dims + "'");
      if (pat.lanes_u > kMaxLanes || pat.lanes_v > kMaxLanes)
        spec_fail(text, "lane grid " + dims + " has a side beyond 2^20");
      saw_lanes = true;
    } else if (tokens[0] == "i" || tokens[0] == "j") {
      if (tokens.size() < 3 || tokens[1] != "=")
        spec_fail(text, "expected '" + tokens[0] + " = <expr>'");
      const LaneExpr expr = parse_expr(text, tokens, 2);
      (tokens[0] == "i" ? pat.i : pat.j) = expr;
      (tokens[0] == "i" ? saw_i : saw_j) = true;
    } else {
      spec_fail(text, "unknown clause '" + tokens[0] + "'");
    }
  }
  if (!saw_lanes) spec_fail(text, "missing 'lanes <U>x<V>' clause");
  if (!saw_i || !saw_j)
    spec_fail(text, "missing 'i = <expr>' or 'j = <expr>' clause");
  pat.name = pat.spec();
  return pat;
}

std::int64_t MafForm::eval(std::int64_t i, std::int64_t j) const {
  const std::int64_t raw = ci * i + cI * floordiv(i, div_i) + cj * j +
                           cJ * floordiv(j, div_j);
  return floormod(raw, modulus);
}

unsigned SymbolicMaf::bank(std::int64_t i, std::int64_t j) const {
  std::int64_t b = 0;
  for (const MafForm& form : forms) b += form.weight * form.eval(i, j);
  return static_cast<unsigned>(b);
}

SymbolicMaf SymbolicMaf::of(const maf::Maf& maf) {
  SymbolicMaf sym;
  sym.p = maf.p();
  sym.q = maf.q();
  const auto p = static_cast<std::int64_t>(maf.p());
  const auto q = static_cast<std::int64_t>(maf.q());
  const std::int64_t n = p * q;
  switch (maf.scheme()) {
    case maf::Scheme::kReO:
      sym.forms = {{1, 0, 1, 0, 0, 1, p, q}, {0, 0, 1, 1, 0, 1, q, 1}};
      return sym;
    case maf::Scheme::kReRo:
      sym.forms = {{1, 0, 1, 0, 1, q, p, q}, {0, 0, 1, 1, 0, 1, q, 1}};
      return sym;
    case maf::Scheme::kReCo:
      sym.forms = {{1, 0, 1, 0, 0, 1, p, q}, {0, 1, p, 1, 0, 1, q, 1}};
      return sym;
    case maf::Scheme::kRoCo:
      sym.forms = {{1, 0, 1, 0, 1, q, p, q}, {0, 1, p, 1, 0, 1, q, 1}};
      return sym;
    case maf::Scheme::kReTr: {
      const auto coeff = maf.retr_coefficients();
      POLYMEM_ASSERT(coeff.has_value());
      const auto a = static_cast<std::int64_t>(coeff->a);
      const auto b = static_cast<std::int64_t>(coeff->b);
      const std::int64_t s = std::min(p, q);
      if (p > q) {
        // Transposed form: bank = (i + a·⌊i/s⌋ + b·j) mod n.
        sym.forms = {{1, a, s, b, 0, 1, n, 1}};
      } else {
        // bank = (j + a·⌊j/s⌋ + b·i) mod n.
        sym.forms = {{b, 0, 1, 1, a, s, n, 1}};
      }
      return sym;
    }
  }
  throw InvalidArgument("unknown scheme");
}

std::string AffineCounterexample::str() const {
  std::ostringstream os;
  os << "anchor " << anchor << ": lanes " << lane_a << " and " << lane_b
     << " (elements " << elem_a << " and " << elem_b << ") both map to bank "
     << bank;
  return os.str();
}

}  // namespace polymem::verify
