// Deterministic distributed (Δ+1)-coloring in O(Δ + log* n) rounds:
// Linial reduction, an additive-group stage, then class elimination.
//
// Stage 1 (Linial [Lin87]): starting from the trivial n-coloring by ids,
// each round maps an m-coloring to a q²-coloring, q prime, by viewing each
// color as a degree-d polynomial over GF(q) (its base-q digits) and picking
// a point x where the node's polynomial disagrees with every neighbor's;
// the new color is the pair (x, p(x)). Since distinct degree-d polynomials
// agree on at most d points, q > d·Δ guarantees a valid x exists. Repeating
// reaches at most q² colors, q = next_prime(2Δ+1), in O(log* n) rounds.
//
// Stage 2 (the locally-iterative additive-group step of Barenboim, Elkin
// and Goldenberg, PODC 2018): a color is c = a·q + b. For exactly q
// rounds, a node with a ≠ 0 takes c := b when no neighbor's color has
// b-part b, and otherwise moves to a·q + (b + a) mod q. Each neighbor
// blocks at most two of the q rounds (one while it moves, one after it
// fixes) and q > 2Δ, so after q rounds every color is below q. Skipped
// when stage 1 already ended with at most q colors.
//
// Stage 3: one color class per round recolors greedily into [0, Δ],
// eliminating classes Δ+1..q-1 in q-Δ-1 rounds.
//
// A node keeps its neighbors' last colors by port and broadcasts only in a
// round in which its own color changed. This replaces the O(Δ + log* n)
// black box of [BEK14]; Algorithm 3 treats the coloring as an opaque first
// phase either way (README, Table-1 notes).
#pragma once

#include "coloring/coloring.hpp"

namespace distapx {

/// The precomputed global schedule of all three stages (identical at every
/// node since it depends only on n and Δ).
struct LinialSchedule {
  struct Step {
    std::uint64_t m_in;   ///< colors before the step
    std::uint32_t degree; ///< polynomial degree d
    std::uint64_t q;      ///< field size (prime)
    std::uint64_t m_out;  ///< q², colors after the step
  };
  std::vector<Step> steps;
  std::uint64_t final_colors = 0;  ///< colors after all reduction steps
  /// next_prime(2·max(Δ,1)+1); final_colors <= q².
  std::uint64_t additive_q = 0;
  std::uint32_t additive_rounds = 0;     ///< q, or 0 if final_colors <= q
  std::uint32_t elimination_rounds = 0;  ///< classes above Δ to eliminate

  /// Colors entering stage 3: q after the additive stage, else
  /// final_colors.
  [[nodiscard]] std::uint64_t elimination_colors() const {
    return additive_rounds != 0 ? additive_q : final_colors;
  }

  /// Rounds of the whole coloring: steps + additive + elimination.
  [[nodiscard]] std::uint32_t total_rounds() const {
    return static_cast<std::uint32_t>(steps.size()) + additive_rounds +
           elimination_rounds;
  }
};

/// Builds the schedule for an n-node, max-degree-Δ graph.
LinialSchedule build_linial_schedule(NodeId n, std::uint32_t max_degree);

/// Smallest prime >= x (trial division; x is polynomial in Δ here).
std::uint64_t next_prime(std::uint64_t x);

/// Factory for the per-node program of all three stages on g.
sim::ProgramFactory make_linial_program(const Graph& g);

/// Runs the full deterministic coloring on g; `opts.seed` is unused. A run
/// cut by `opts.max_rounds` leaves nodes at color 0.
ColoringResult linial_coloring(const Graph& g, const sim::RunOptions& opts);

}  // namespace distapx
