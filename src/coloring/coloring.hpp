// Distributed (Δ+1)-coloring substrate for Algorithm 3.
//
// The paper invokes an O(Δ + log* n)-round deterministic coloring
// ([BEK14, Bar15]) as a black box. We provide (README, Table-1 notes):
//   * linial_coloring     — deterministic, O(Δ + log* n) rounds: Linial's
//     polynomial color reduction to O(Δ²) colors in O(log* n) rounds, an
//     additive-group stage to O(Δ) colors in O(Δ) rounds, then
//     one-class-per-round reduction to Δ+1 (coloring/linial.hpp).
//   * randomized_coloring — O(log n)-round randomized (Δ+1)-coloring.
//   * greedy_coloring     — sequential baseline / verifier aid.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace distapx {

using Color = std::uint32_t;

struct ColoringResult {
  std::vector<Color> colors;  ///< per node
  Color num_colors = 0;       ///< 1 + max color used
  sim::RunMetrics metrics;
};

/// True iff adjacent nodes always have distinct colors.
bool is_proper_coloring(const Graph& g, const std::vector<Color>& colors);

/// Sequential greedy coloring in id order; uses at most Δ+1 colors.
std::vector<Color> greedy_coloring(const Graph& g);

}  // namespace distapx
