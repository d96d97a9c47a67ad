// Weighted (2+ε)-approximate maximum matching in O(log Δ / log log Δ)
// rounds: the Appendix B.1 extension via the methods of Lotker et al.
//
// Stage 1 ([LPSR09] bucketing): edge weights are classified into
// big-buckets [β^i, β^{i+1}) and, within each, small-buckets by powers of
// (1+ε). All big-buckets run in parallel (their edge sets are disjoint, so
// per-physical-edge CONGEST load is unchanged); within a big-bucket the
// small-buckets run highest first, each finding an unweighted
// (2+ε)-matching (Thm 3.2) among its surviving edges and removing incident
// edges. A node then keeps only its heaviest chosen edge. Result: an
// O(1)-approximation of MWM.
//
// Stage 2 ([LPSP15] §4): O(1/ε) refinement iterations. Each defines an
// auxiliary gain for every edge (weight gained by adding it and evicting
// adjacent matched edges), finds an O(1)-approximate matching under the
// auxiliary weights using stage 1, and augments. Yields (2+ε).
#pragma once

#include "matching/matching.hpp"

namespace distapx {

struct Weighted2EpsParams {
  double epsilon = 0.25;
  /// Big-bucket base β (a large constant in the paper).
  double beta = 8.0;
  /// Stage-2 refinement iterations (paper: O(1/ε); 0 = derive from ε).
  std::uint32_t refine_iterations = 0;
};

struct Weighted2EpsResult {
  std::vector<EdgeId> matching;
  sim::RunMetrics metrics;   ///< aggregated over all sub-runs
  std::uint32_t rounds_parallel = 0;  ///< max over parallel big-buckets,
                                      ///< summed over sequential phases
};

/// Stage 1 only: the O(1)-approximation.
Weighted2EpsResult run_bucketed_o1_mwm(const Graph& g, const EdgeWeights& w,
                                       const sim::RunOptions& opts,
                                       const Weighted2EpsParams& params = {});

/// Full algorithm: stages 1 + 2, the (2+ε)-approximation. Every sub-run
/// gets the rounds (counted as `metrics.rounds`) the earlier ones left; a
/// cut sub-run ends the run with the matching found so far.
Weighted2EpsResult run_weighted_2eps_matching(
    const Graph& g, const EdgeWeights& w, const sim::RunOptions& opts,
    const Weighted2EpsParams& params = {});

}  // namespace distapx
