// Benes rearrangeable permutation network.
//
// The paper's shuffles are full crossbars — O(n^2) crosspoints, the cause
// of its supra-linear logic growth (Sec. IV-C). The classic alternative
// is a Benes network: 2*log2(n) - 1 stages of n/2 two-by-two switches,
// O(n log n) area, able to realise ANY permutation — at the price of a
// route-computation step (the "looping algorithm") that is hard to do
// combinationally in one cycle. This module implements the network and
// its routing exactly, so bench_paper's shuffle-network ablation rests on
// a real implementation, not just a cost formula.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"

namespace polymem::hw {

/// Switch settings for one routed permutation: stage_cross[s][t] is true
/// when switch t of stage s crosses its two inputs.
struct BenesPlan {
  unsigned lanes = 0;
  std::vector<std::vector<bool>> stage_cross;

  unsigned stages() const {
    return static_cast<unsigned>(stage_cross.size());
  }
  std::uint64_t switches() const {
    std::uint64_t n = 0;
    for (const auto& stage : stage_cross) n += stage.size();
    return n;
  }
};

/// Number of stages / 2x2 switches of an n-lane Benes network (n = 2^k).
constexpr unsigned benes_stages(unsigned lanes) {
  return lanes <= 1 ? 0 : 2 * log2_ceil(lanes) - 1;
}
constexpr std::uint64_t benes_switches(unsigned lanes) {
  return static_cast<std::uint64_t>(benes_stages(lanes)) * (lanes / 2);
}

/// Computes switch settings realising out[k] = in[sel[k]] (the same
/// semantics as hw::shuffle). `sel` must be a permutation and lanes a
/// power of two.
BenesPlan benes_route(std::span<const unsigned> sel);

namespace detail {
// Applies one recursion level of the plan; used by benes_apply.
template <typename T>
void apply_rec(std::span<const T> in, std::span<T> out,
               const BenesPlan& plan, unsigned depth, unsigned block);
}  // namespace detail

/// Applies a routed plan to data: out[k] = in[sel[k]] for the `sel` the
/// plan was computed from.
template <typename T>
void benes_apply(std::span<const T> in, const BenesPlan& plan,
                 std::span<T> out) {
  POLYMEM_REQUIRE(in.size() == plan.lanes && out.size() == plan.lanes,
                  "lane counts must match the plan");
  if (plan.lanes == 1) {
    out[0] = in[0];
    return;
  }
  detail::apply_rec<T>(in, out, plan, 0, 0);
}

namespace detail {

template <typename T>
void apply_rec(std::span<const T> in, std::span<T> out,
               const BenesPlan& plan, unsigned depth, unsigned block) {
  const unsigned m = static_cast<unsigned>(in.size());
  const unsigned total = plan.stages();
  if (m == 2) {
    // The single middle switch of this recursion path.
    const bool cross = plan.stage_cross[depth][block];
    out[0] = in[cross ? 1 : 0];
    out[1] = in[cross ? 0 : 1];
    return;
  }
  const unsigned half = m / 2;
  const unsigned first = depth;
  const unsigned last = total - 1 - depth;
  const unsigned sw_base = block * half;

  // Input column: route each input pair into the two subnetworks.
  std::vector<T> upper_in(half), lower_in(half);
  for (unsigned t = 0; t < half; ++t) {
    const bool cross = plan.stage_cross[first][sw_base + t];
    upper_in[t] = in[2 * t + (cross ? 1 : 0)];
    lower_in[t] = in[2 * t + (cross ? 0 : 1)];
  }
  // Subnetworks.
  std::vector<T> upper_out(half), lower_out(half);
  apply_rec<T>(upper_in, std::span<T>(upper_out), plan, depth + 1,
               2 * block);
  apply_rec<T>(lower_in, std::span<T>(lower_out), plan, depth + 1,
               2 * block + 1);
  // Output column.
  for (unsigned t = 0; t < half; ++t) {
    const bool cross = plan.stage_cross[last][sw_base + t];
    out[2 * t + (cross ? 1 : 0)] = upper_out[t];
    out[2 * t + (cross ? 0 : 1)] = lower_out[t];
  }
}

}  // namespace detail

}  // namespace polymem::hw
