// Theorem B.12: (1+ε)-approximate maximum cardinality matching in general
// graphs in the CONGEST model, O(2^{O(1/ε)} · log Δ / log log Δ) rounds.
//
// The method of Lotker et al. [LPSP15] randomly reduces to bipartite
// instances: each stage colors nodes red/blue uniformly, keeps unmatched
// nodes and matched pairs whose matching edge is bi-chromatic, and keeps
// the bi-chromatic edges among them. In the resulting bipartite graph a
// nearly-maximal set of augmenting paths of each length d = 1, 3, ...,
// 2⌈1/ε⌉-1 is found and flipped with the Appendix B.3 machinery
// (bipartite_paths.hpp). Augmenting paths of the bipartite subgraph are
// augmenting in G, so the matching improves monotonically; after
// 2^{O(1/ε)} stages the result is a (1+ε)-approximation.
#pragma once

#include "matching/bipartite_paths.hpp"
#include "matching/matching.hpp"

namespace distapx {

struct McmCongestParams {
  double epsilon = 1.0 / 3.0;
  /// Number of random-bipartition stages (0 = 2^{⌈1/ε⌉+2}, capped at 64).
  std::uint32_t stages = 0;
  /// Per-(stage, d) search parameters; d and epsilon fields are overridden.
  AugPathSearchParams search;
};

struct McmCongestResult {
  std::vector<EdgeId> matching;
  std::vector<NodeId> deactivated;
  std::uint32_t stages = 0;
  std::uint32_t rounds = 0;  ///< summed over all stages and path lengths
  bool completed = true;  ///< false iff `opts.max_rounds` cut the run
};

/// Rounds are charged by formula (1 per stage, 6d+4 per B.3 iteration)
/// and no message is sent, so `opts.policy` does not apply.
McmCongestResult run_mcm_1eps_congest(const Graph& g,
                                      const sim::RunOptions& opts,
                                      McmCongestParams params = {});

}  // namespace distapx
