// Deterministic distributed coloring: Linial reduction + class elimination.
//
// Stage 1 (Linial [Lin87]): starting from the trivial n-coloring by ids,
// each round maps an m-coloring to a q²-coloring, q prime, by viewing each
// color as a degree-d polynomial over GF(q) (its base-q digits) and picking
// a point x where the node's polynomial disagrees with every neighbor's;
// the new color is the pair (x, p(x)). Since distinct degree-d polynomials
// agree on at most d points, q > d·Δ guarantees a valid x exists. Repeating
// reaches O(Δ²) colors in O(log* n) rounds.
//
// Stage 2: one color class per round recolors greedily into [0, Δ],
// eliminating classes Δ+1..C-1 in C-Δ-1 rounds (O(Δ²) total).
//
// This is the documented substitution for the [BEK14] O(Δ + log* n) black
// box (see DESIGN.md): Algorithm 3 treats the coloring as an opaque first
// phase either way.
#pragma once

#include "coloring/coloring.hpp"

namespace distapx {

/// The precomputed global schedule of Linial reduction steps (identical at
/// every node since it depends only on n and Δ).
struct LinialSchedule {
  struct Step {
    std::uint64_t m_in;   ///< colors before the step
    std::uint32_t degree; ///< polynomial degree d
    std::uint64_t q;      ///< field size (prime)
    std::uint64_t m_out;  ///< q², colors after the step
  };
  std::vector<Step> steps;
  std::uint64_t final_colors = 0;  ///< colors after all reduction steps
};

/// Builds the reduction schedule for an n-node, max-degree-Δ graph.
LinialSchedule build_linial_schedule(NodeId n, std::uint32_t max_degree);

/// Smallest prime >= x (trial division; x is polynomial in Δ here).
std::uint64_t next_prime(std::uint64_t x);

/// Factory for the per-node program of both stages on g.
sim::ProgramFactory make_linial_program(const Graph& g);

/// Runs the full deterministic coloring (stages 1+2) on g; `opts.seed` is
/// unused. A run cut by `opts.max_rounds` leaves nodes at color 0.
ColoringResult linial_coloring(const Graph& g, const sim::RunOptions& opts);

}  // namespace distapx
