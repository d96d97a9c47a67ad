// Algorithm 2: distributed Δ-approximation for weighted MaxIS in CONGEST
// (paper Sec. 2.2, Theorem 2.3), running in O(MIS(G) · log W) rounds.
//
// Nodes are layered by weight (L_i = {v : 2^{i-1} < w(v) <= 2^i}); a node
// may take part in the MIS selection only while no undecided neighbor sits
// in a higher layer, so adjacent participants always share a layer and the
// topmost layer never waits. Selected nodes perform the local-ratio weight
// reduction of Algorithm 1; reduced-to-zero nodes are removed; candidates
// join the IS in reverse removal order (see local_ratio_base.hpp).
//
// Each super-iteration is 4 rounds:
//   phase 0  candidates try to join; undecided nodes broadcast their layer
//   phase 1  eligible nodes (no higher-layer undecided neighbor) broadcast
//            a selection value
//   phase 2  selection winners become candidates and send reduce(w)
//   phase 3  reductions are applied; dead nodes announce removed()
//
// The per-iteration MIS black box is pluggable (the E9 ablation): one Luby
// iteration (the paper's CONGEST instantiation), a fair-coin marking
// iteration, or the deterministic id-greedy rule.
#pragma once

#include "maxis/local_ratio_base.hpp"
#include "maxis/maxis.hpp"

namespace distapx {

/// Per-iteration selection rule among eligible nodes.
enum class MisSelectionRule {
  kLubyValue,  ///< random value, strict local maximum wins
  kCoin,       ///< mark w.p. 1/2, win if marked and no marked neighbor
  kIdGreedy,   ///< deterministic: highest id among eligible neighbors wins
};

struct LayeredMaxIsParams {
  MisSelectionRule rule = MisSelectionRule::kLubyValue;
  /// Ablation (bench_ablation_layers): when false, every undecided node is
  /// always MIS-eligible regardless of neighbor layers. Correctness (the
  /// Δ-approximation) is unaffected — Lemma 2.2 holds for any independent
  /// set — but the O(MIS·log W) round bound of Theorem 2.3 is lost.
  bool use_layers = true;
};

/// Factory: `max_weight` is the global W (the paper assumes W <= poly(n)).
sim::ProgramFactory make_layered_maxis_program(const Graph& g,
                                               const NodeWeights& w,
                                               Weight max_weight,
                                               LayeredMaxIsParams params = {});

/// Convenience runner under `opts`.
MaxIsResult run_layered_maxis(const Graph& g, const NodeWeights& w,
                              const sim::RunOptions& opts,
                              LayeredMaxIsParams params = {});

}  // namespace distapx
