// Affine access-pattern IR and the symbolic MAF normal form.
//
// The Table-I pattern families (access/pattern.hpp) are six fixed shapes;
// every one of them — and every user-defined strided/skewed variant — is
// an instance of one algebraic object: a *lane lattice* t = (u, v) with
// u in [0, U), v in [0, V), and an affine index map
//
//   element(u, v) = anchor + (A·t + b)
//                 = anchor + (a_iu·u + a_iv·v + b_i,  a_ju·u + a_jv·v + b_j)
//
// The anchor stays parametric: the symbolic prover
// (verify/affine_prover.hpp) decides conflict-freedom for *every* anchor
// (or every p/q-aligned anchor) at once, so admitting a new workload never
// requires a per-matrix sweep.
//
// The dual object is the MAF itself in algebraic normal form: every bank
// function this library ships is a sum of mixed-radix digits
//
//   bank(i, j) = Σ_f weight_f · ((c_i·i + c_I·⌊i/D_i⌋ + c_j·j + c_J·⌊j/D_j⌋)
//                                mod m_f)
//
// (the multiview schemes are two digits mod p and mod q; ReTr is a single
// digit mod p·q). `SymbolicMaf::of` extracts the form from a production
// `maf::Maf`, and the prover works on the form, never on pointwise
// evaluation — which is what makes anchor-parametric proofs possible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "access/coord.hpp"
#include "access/pattern.hpp"
#include "maf/maf.hpp"

namespace polymem::verify {

/// A linear form c_u·u + c_v·v + c_0 over the lane lattice.
struct LaneExpr {
  std::int64_t cu = 0;
  std::int64_t cv = 0;
  std::int64_t c0 = 0;

  std::int64_t eval(std::int64_t u, std::int64_t v) const {
    return cu * u + cv * v + c0;
  }

  /// Renders the form in the spec grammar, e.g. "2*u - v + 1" or "0".
  std::string str() const;

  friend bool operator==(const LaneExpr&, const LaneExpr&) = default;
};

/// An affine parallel-access pattern: U x V lanes, each offset from the
/// (parametric) anchor by an affine function of its lattice position.
/// Lane (u, v) has flat id u·V + v — the canonical DataIn/DataOut port
/// order, matching access::expand for the Table-I families.
struct AffinePattern {
  std::string name;  ///< display name; the spec string when parsed
  std::int64_t lanes_u = 1;
  std::int64_t lanes_v = 1;
  LaneExpr i;  ///< row offset of lane (u, v) from the anchor
  LaneExpr j;  ///< column offset of lane (u, v) from the anchor

  std::int64_t count() const { return lanes_u * lanes_v; }
  std::int64_t flat(std::int64_t u, std::int64_t v) const {
    return u * lanes_v + v;
  }

  /// Element coordinate of lane (u, v) for a concrete anchor.
  access::Coord element(access::Coord anchor, std::int64_t u,
                        std::int64_t v) const {
    return {anchor.i + i.eval(u, v), anchor.j + j.eval(u, v)};
  }

  /// Inclusive offset bounding box over the whole lane lattice. Offsets
  /// are affine in (u, v), so the extremes occur at the lattice corners.
  struct Box {
    std::int64_t min_i = 0, max_i = 0;
    std::int64_t min_j = 0, max_j = 0;
  };
  Box bounding_box() const;

  /// Empty when the pattern is well-formed; otherwise the reason it can
  /// never be proven (non-positive or oversized lane grid).
  std::string invalid_reason() const;

  /// The spec-grammar rendering: "lanes UxV ; i = <expr> ; j = <expr>".
  std::string spec() const;

  /// The Table-I family as an affine pattern for a p x q geometry.
  static AffinePattern of(access::PatternKind kind, unsigned p, unsigned q);

  /// Parses the spec grammar (whitespace-insensitive):
  ///
  ///   spec   := "lanes" <U> "x" <V> ";" "i" "=" expr ";" "j" "=" expr
  ///   expr   := ["+"|"-"] term { ("+"|"-") term }
  ///   term   := int "*" var | var | int      var := "u" | "v"
  ///
  /// e.g. "lanes 1x8 ; i = 0 ; j = 3*v" is a stride-3 row of 8 lanes.
  /// Every int, and every sum of one variable's terms or of the
  /// constants, lies within +-2^31, and U and V within 2^20, so no lane
  /// offset overflows. Throws InvalidArgument with the offending token on
  /// malformed or out-of-range input.
  static AffinePattern parse(const std::string& text);

  friend bool operator==(const AffinePattern&, const AffinePattern&) = default;
};

/// One mixed-radix digit of a bank function:
/// value = (ci·i + cI·⌊i/div_i⌋ + cj·j + cJ·⌊j/div_j⌋) mod modulus.
struct MafForm {
  std::int64_t ci = 0;
  std::int64_t cI = 0;
  std::int64_t div_i = 1;
  std::int64_t cj = 0;
  std::int64_t cJ = 0;
  std::int64_t div_j = 1;
  std::int64_t modulus = 1;
  std::int64_t weight = 1;

  std::int64_t eval(std::int64_t i, std::int64_t j) const;
};

/// A bank function in algebraic normal form: bank = Σ weight_f · digit_f.
/// The digits form a mixed-radix system (Σ weight_f·(m_f − 1) < Σ ranges
/// stay disjoint), so bank equality is digit-wise congruence — the fact
/// the symbolic prover exploits.
struct SymbolicMaf {
  unsigned p = 0;
  unsigned q = 0;
  std::vector<MafForm> forms;

  unsigned banks() const { return p * q; }
  unsigned bank(std::int64_t i, std::int64_t j) const;

  /// Extracts the normal form of a production MAF (all five schemes).
  static SymbolicMaf of(const maf::Maf& maf);
};

/// A concrete, replayable collision witness: at `anchor`, lanes `lane_a`
/// and `lane_b` (flat ids) touch `elem_a`/`elem_b`, both stored in `bank`.
struct AffineCounterexample {
  access::Coord anchor;
  std::int64_t lane_a = 0;
  std::int64_t lane_b = 0;
  access::Coord elem_a;
  access::Coord elem_b;
  unsigned bank = 0;

  /// "anchor (1,2): lanes 3 and 7 (elements (1,5) and (2,6)) both map to
  /// bank 4"
  std::string str() const;
};

}  // namespace polymem::verify
