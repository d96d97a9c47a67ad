// Randomized (Δ+1)-coloring in O(log n) rounds w.h.p.
//
// The classic trial-color algorithm: every uncolored node draws a uniform
// candidate from its remaining palette ([0, deg(v)] minus colors finalized
// by neighbors) and keeps it if no uncolored neighbor drew the same color.
// Used as the faster randomized coloring black box for Algorithm 3.
#pragma once

#include "coloring/coloring.hpp"

namespace distapx {

/// A run cut by `opts.max_rounds` leaves its uncolored nodes at color 0.
ColoringResult randomized_coloring(const Graph& g,
                                   const sim::RunOptions& opts);

}  // namespace distapx
