// 2-approximate maximum weight matching via MaxIS on the line graph
// (paper Sec. 2.4, Theorems 2.9 + 2.10).
//
// Algorithm 2 is a *local aggregation algorithm* (Thm 2.9): its
// neighborhood accesses are Boolean and/or plus a weight-reduction sum, all
// aggregate functions. LayeredMaxIsAggProgram is that reformulation; run on
// the line graph through the Theorem 2.8 mechanism it computes a
// Δ_L-approximate MaxIS of L(G). Since an independent set in a line-graph
// neighborhood has size at most 2, the same run is a 2-approximation of
// maximum weight matching on G — with O(log n) bits per physical edge per
// round, not the Θ(Δ) of naive simulation.
//
// Iteration structure (3 super-rounds each):
//   A  eligibility: no undecided line-neighbor in a higher weight layer
//   B  selection among eligible agents (Luby value, strict max wins);
//      winners become candidates and publish their reduction amount
//   C  reductions applied (SUM aggregate); dead agents turn `removed`
// Candidates join once every line-neighbor is removed or candidated
// earlier (MAX aggregate over active candidacy times) — the reverse-order
// stack unwind of Algorithm 1.
#pragma once

#include "matching/matching.hpp"
#include "maxis/maxis.hpp"
#include "sim/aggregation.hpp"

namespace distapx {

/// Algorithm 2 as a local aggregation program (agents = nodes or edges).
class LayeredMaxIsAggProgram final : public sim::AggProgram {
 public:
  /// `weights` indexed by agent id; `max_weight` is the global W;
  /// `num_agents` bounds ids for the Luby tie-break.
  LayeredMaxIsAggProgram(const std::vector<Weight>& weights,
                         Weight max_weight, std::uint32_t num_agents);

  [[nodiscard]] std::vector<int> state_bits() const override;
  [[nodiscard]] std::vector<sim::Aggregator> aggregators() const override;
  void init(sim::AggCtx& ctx) override;
  void round(sim::AggCtx& ctx) override;

 private:
  const std::vector<Weight>* weights_;
  int weight_bits_;
  int value_bits_;
  int id_bits_;
};

/// MaxIS via the aggregation form of Algorithm 2, agents = nodes of g
/// (reference for tests; equivalent guarantees to run_layered_maxis).
MaxIsResult run_layered_maxis_agg(const Graph& g, const NodeWeights& w,
                                  const sim::RunOptions& opts);

/// Theorem 2.10: 2-approximate MWM, running the program on L(g) through
/// the congestion-free mechanism. Also usable with unit weights as a
/// 2-approximate maximum cardinality matching.
MatchingResult run_lr_matching(const Graph& g, const EdgeWeights& w,
                               const sim::RunOptions& opts);

}  // namespace distapx
