// Algorithm 3: coloring-based deterministic Δ-approximation for weighted
// MaxIS (paper Sec. 2.3), O(#colors) rounds after a (Δ+1)-coloring.
//
// Nodes are prioritized by color instead of weight layer: an undecided node
// whose color is a local maximum among undecided neighbors performs the
// local-ratio weight reduction and becomes a candidate. After at most Δ+1
// sweeps every node is a candidate or removed; candidates then join in
// reverse removal order exactly as in Algorithm 2. With the [BEK14] black
// box this is O(Δ + log* n) rounds; see DESIGN.md for our coloring
// substitution (Linial O(Δ² + log* n) or randomized O(log n)).
//
// Two rounds per sweep:
//   phase 0  candidates try to join; locally-max-color nodes send reduce(w)
//   phase 1  reductions applied; dead nodes announce removed()
#pragma once

#include "coloring/coloring.hpp"
#include "maxis/local_ratio_base.hpp"
#include "maxis/maxis.hpp"

namespace distapx {

/// Which coloring substrate to run first.
enum class ColoringSource {
  kLinial,      ///< deterministic (O(Δ² + log* n) rounds)
  kRandomized,  ///< randomized (O(log n) rounds)
};

struct ColoringMaxIsResult {
  std::vector<NodeId> independent_set;
  sim::RunMetrics coloring_metrics;  ///< the black-box coloring phase
  sim::RunMetrics maxis_metrics;     ///< the Algorithm 3 phase proper
  Color num_colors = 0;
};

/// Runs Algorithm 3 on a precomputed proper coloring (phase metrics only
/// cover the MaxIS part). Algorithm 3 proper is deterministic.
ColoringMaxIsResult run_coloring_maxis_with(
    const Graph& g, const NodeWeights& w, const std::vector<Color>& colors,
    const sim::RunOptions& opts);

/// Full pipeline: coloring black box, then Algorithm 3 on the rounds the
/// coloring left. A coloring cut by `opts.max_rounds` ends the run there.
ColoringMaxIsResult run_coloring_maxis(const Graph& g, const NodeWeights& w,
                                       ColoringSource source,
                                       const sim::RunOptions& opts);

}  // namespace distapx
