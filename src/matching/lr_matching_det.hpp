// Deterministic 2-approximate maximum weight matching (the second half of
// Theorem 2.10): Algorithm 3 (coloring-based local ratio, Sec. 2.3)
// expressed as a local aggregation program and executed on the line graph
// through the Theorem 2.8 mechanism.
//
// The coloring black box is a proper coloring of L(G) — equivalently a
// proper edge coloring of G — computed with the deterministic Linial
// substrate on the explicit line graph; its round cost is reported
// separately, mirroring how Algorithm 3's O(Δ + log* n) bound charges the
// coloring to [BEK14].
//
// One super-round per color sweep: a locally-max-color undecided agent
// performs the weight reduction; reduced-to-zero agents are removed;
// candidates join in reverse candidacy order exactly as in the randomized
// variant.
#pragma once

#include "coloring/coloring.hpp"
#include "matching/matching.hpp"
#include "maxis/maxis.hpp"
#include "sim/aggregation.hpp"

namespace distapx {

/// Algorithm 3 as a local aggregation program over arbitrary agents.
class ColoringMaxIsAggProgram final : public sim::AggProgram {
 public:
  /// `weights` and `colors` are indexed by agent id; `colors` must be a
  /// proper coloring of the agent adjacency.
  ColoringMaxIsAggProgram(const std::vector<Weight>& weights,
                          const std::vector<Color>& colors,
                          Weight max_weight, Color num_colors);

  [[nodiscard]] std::vector<int> state_bits() const override;
  [[nodiscard]] std::vector<sim::Aggregator> aggregators() const override;
  void init(sim::AggCtx& ctx) override;
  void round(sim::AggCtx& ctx) override;

 private:
  const std::vector<Weight>* weights_;
  const std::vector<Color>* colors_;
  int weight_bits_;
  int color_bits_;
};

/// Deterministic Δ-approx MaxIS via the aggregation form of Algorithm 3,
/// agents = nodes of g (testing reference; pass a proper coloring).
MaxIsResult run_coloring_maxis_agg(const Graph& g, const NodeWeights& w,
                                   const std::vector<Color>& colors,
                                   const sim::RunOptions& opts);

struct DetLrMatchingResult {
  std::vector<EdgeId> matching;
  sim::RunMetrics coloring_metrics;  ///< Linial on L(G) (the black box)
  sim::RunMetrics matching_metrics;  ///< the Algorithm 3 sweeps
  Color num_colors = 0;
};

/// Theorem 2.10 (deterministic): 2-approximate MWM on g. Both phases are
/// deterministic; the sweeps get the rounds the coloring left, and a
/// coloring cut by `opts.max_rounds` ends the run there.
DetLrMatchingResult run_lr_matching_deterministic(
    const Graph& g, const EdgeWeights& w, const sim::RunOptions& opts);

}  // namespace distapx
