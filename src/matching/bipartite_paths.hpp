// Appendix B.3: CONGEST machinery for augmenting paths in bipartite graphs.
//
// The conflict graph of length-d augmenting paths cannot be built explicitly
// in CONGEST; instead the marking probabilities p_t(P) are represented
// *implicitly* as products of per-node attenuation parameters α_t(v), and
// three message-passing primitives run directly on the bipartite graph:
//
//  1. Forward traversal (d rounds, Claim B.5): BFS-layered passing from
//     free A-nodes; each first-time receipt forwards, so each unmatched
//     B-node learns the number (or probability mass, Claim B.6) of
//     shortest augmenting paths ending at it. This is Figure 1.
//  2. Backward traversal (d rounds): the mass is split back proportionally
//     to forward contributions, so every node learns Σ_{P ∋ v} p_t(P).
//  3. Token marking (d rounds): each free B-node initiates a token with
//     probability equal to its path mass (unless heavy); tokens walk
//     backwards link by link, choosing predecessors proportionally;
//     colliding tokens die. Tokens reaching a free A-node are selected,
//     vertex-disjoint augmenting paths (layering makes intersecting tokens
//     collide at the shared node in the same round).
//
// Attenuations move by the Claim B.8 rule: a *heavy* node (path mass
// >= 1/(10d)) multiplies α by K^{-2d} (floored at Δ^{-20/ε}); others
// multiply by K up to their initial value. Nodes with too many *good*
// iterations (light path mass >= 1/(dK^{2d})) without being removed are
// deactivated — each such event has probability <= δ (Lemma B.10) — and
// Lemma B.11 bounds the total iterations until no length-d path remains.
//
// Cost. A search call allocates its O(n + m) workspaces once. After that
// one iteration costs O(touched DAG): the nodes and edges its two sweeps
// reach from the usable free A-nodes, plus a pass over the free A-node
// list, plus sorting the DAG's free B end nodes and each sender's edges by
// id, so that every sum and every RNG draw happens in the order of a full
// scan. Attenuation visits only the heavy nodes and those still below
// their initial α; deactivation checks only the nodes whose good count
// moved. Nothing per iteration scans all n nodes or all m edges.
#pragma once

#include <vector>

#include "graph/bipartite.hpp"
#include "graph/graph.hpp"
#include "matching/augmenting.hpp"
#include "support/random.hpp"

namespace distapx {

/// Per-node counts of shortest (length exactly d) augmenting paths through
/// each node, via the forward+backward traversal with unit start values
/// (Claim B.5). `mate` defines the matching; A-side = parts left. Only
/// nodes with active[v] participate (empty = all). `parts`, `mate` and a
/// non-empty `active` must have one entry per node (EnsureError if not).
///
/// Returns counts as doubles (the traversal computes them by proportional
/// splitting; they are integral up to FP error for unit starts).
std::vector<double> count_augmenting_paths_per_node(
    const Graph& g, const Bipartition& parts,
    const std::vector<NodeId>& mate, std::uint32_t d,
    const std::vector<bool>& active = {});

struct AugPathSearchParams {
  std::uint32_t d = 3;        ///< exact augmenting-path length (odd)
  double epsilon = 1.0 / 3.0; ///< sets the attenuation floor Δ^{-20/ε}
  std::uint32_t K = 2;
  double delta = 0.05;        ///< per-node deactivation probability target
  double beta = 1.5;
  /// Good-iteration deactivation threshold; 0 = beta*d*K^{2d}*ln(1/δ),
  /// capped at 10^6 (the Lemma B.10 budget).
  std::uint64_t good_threshold = 0;
  std::uint32_t max_iterations = 1u << 14;
};

struct AugPathSearchResult {
  /// Selected vertex-disjoint augmenting paths (A-end first). The caller's
  /// `mate` view has already been augmented with them.
  std::vector<NodePath> flipped;
  std::vector<NodeId> deactivated;
  std::uint32_t iterations = 0;
  /// CONGEST rounds consumed: Θ(d) per iteration for each traversal plus
  /// the marking walk (messages carry O(log Δ/ε²)-bit numbers; the paper
  /// groups O(1/ε²) physical rounds per logical round accordingly).
  std::uint32_t rounds = 0;
  bool drained = false;  ///< no length-d path among active nodes was left
};

/// Finds and flips a nearly-maximal set of vertex-disjoint length-d
/// augmenting paths in a bipartite graph (the core of Theorem B.12).
/// `mate` is updated in place; `active` nodes shrink by deactivations.
/// `parts`, `mate` and `active` must have one entry per node (EnsureError
/// if not).
AugPathSearchResult find_and_flip_aug_paths_bipartite(
    const Graph& g, const Bipartition& parts, std::vector<NodeId>& mate,
    std::vector<bool>& active, const AugPathSearchParams& params, Rng& rng);

}  // namespace distapx
