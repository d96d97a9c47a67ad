// Nearly-maximal IS as a *local aggregation algorithm* (paper Sec. 3.1 +
// Thm 3.2): the same K-factor dynamics as ghaffari_nmis.hpp, but expressed
// in the publish/aggregate model so it can run on line graphs via the
// Theorem 2.8 mechanism without congestion. Running it on L(G) computes a
// nearly-maximal *matching*, the core of the (2+ε)-approximation.
#pragma once

#include "graph/graph.hpp"
#include "mis/ghaffari_nmis.hpp"
#include "mis/mis.hpp"
#include "sim/aggregation.hpp"

namespace distapx {

/// The NMIS dynamics as an AggProgram. One super-round per NMIS iteration.
///
/// State fields: [status(2b: 0 active / 1 joined / 2 removed / 3 undecided),
/// exponent, marked(1b)]. Aggregates: OR(neighbor joined),
/// OR(neighbor active & marked), SUM(neighbor active probability, fixed
/// point 2^-30).
class NmisAggProgram final : public sim::AggProgram {
 public:
  NmisAggProgram(std::uint32_t max_degree, NmisParams params);

  [[nodiscard]] std::vector<int> state_bits() const override;
  [[nodiscard]] std::vector<sim::Aggregator> aggregators() const override;
  void init(sim::AggCtx& ctx) override;
  void round(sim::AggCtx& ctx) override;

  [[nodiscard]] std::uint32_t iterations() const noexcept {
    return iterations_;
  }

 private:
  NmisParams params_;
  std::uint32_t iterations_;
  int exp_bits_;
};

/// NMIS via aggregation on the nodes of g (reference / testing).
IsResult run_nmis_agg_on_nodes(const Graph& g, const sim::RunOptions& opts,
                               NmisParams params = {});

/// Nearly-maximal matching: NMIS on L(g) via the Thm 2.8 mechanism.
/// Outputs are per *edge* of g; the returned "independent_set" holds EdgeIds
/// of matched edges and "undecided" holds leftover edges.
struct NmMatchingResult {
  std::vector<EdgeId> matching;
  std::vector<EdgeId> undecided;
  sim::RunMetrics metrics;
  std::uint32_t super_rounds = 0;
};
NmMatchingResult run_nearly_maximal_matching(const Graph& g,
                                             const sim::RunOptions& opts,
                                             NmisParams params = {});

}  // namespace distapx
