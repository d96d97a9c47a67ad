// Appendix B.4: the alternative (2+ε)-approximation of unweighted maximum
// matching via random proposals.
//
// Bipartite case (Lemma B.13): every round, each unmatched left node
// proposes on a uniformly random edge to a still-unmatched right neighbor;
// each right node accepts the highest-id proposal. In each round a left
// node either loses a K-factor of its remaining degree or succeeds with
// probability 1/K, so after O(K log 1/ε + log Δ / log K) rounds each left
// node is unmatched-but-non-isolated ("unlucky") with probability <= ε/2.
//
// General case (Lemma B.14): O(log 1/ε) repetitions of a random left/right
// split, running the bipartite algorithm on the bi-chromatic edges of the
// unmatched remainder.
#pragma once

#include "graph/bipartite.hpp"
#include "matching/matching.hpp"
#include "sim/network.hpp"

namespace distapx {

struct ProposalParams {
  double epsilon = 0.25;
  /// Degree-shrink factor K of Lemma B.13; 0 = optimized
  /// log Δ / log(log Δ / log(1/ε)) choice (>= 2).
  std::uint32_t K = 0;
  /// Explicit round budget (0 = derive from the lemma).
  std::uint32_t iterations = 0;
};

struct ProposalResult {
  std::vector<EdgeId> matching;
  /// Left nodes that finished unmatched with unmatched neighbors remaining
  /// (the "unlucky" nodes whose fraction Lemma B.13 bounds by ε/2).
  std::vector<NodeId> unlucky;
  sim::RunMetrics metrics;
};

/// Lemma B.13 proposal iterations for bipartite g.
std::uint32_t proposal_iteration_budget(std::uint32_t max_degree,
                                        const ProposalParams& params);

/// Bipartite proposal matching (Lemma B.13); g must be bipartite w.r.t.
/// `parts`. The run stops at the 2·iterations+4 rounds the program needs or
/// at `opts.max_rounds`, whichever is smaller.
ProposalResult run_proposal_matching_bipartite(const Graph& g,
                                               const Bipartition& parts,
                                               const sim::RunOptions& opts,
                                               ProposalParams params = {});

/// General-graph wrapper (Lemma B.14): O(log 1/ε) random bipartitions,
/// each on the rounds the earlier ones left; a cut one ends the run.
ProposalResult run_proposal_matching(const Graph& g,
                                     const sim::RunOptions& opts,
                                     ProposalParams params = {});

}  // namespace distapx
