// The paper's modified nearly-maximal independent set algorithm (Sec. 3.1),
// a faster variant of Ghaffari's MIS core [Gha16].
//
// Dynamics: every node holds a marking probability p_t(v) = K^{-j}, starting
// at 1/K. Its effective degree is d_t(v) = sum of neighbors' probabilities.
// Each iteration the node marks itself with probability p_t(v); a marked
// node with no marked neighbor joins the IS (removing its neighborhood).
// Probabilities update:  p/K if d_t >= 2, else min(K*p, 1/K).
//
// Theorem 3.1: after beta*(log Δ / log K + K^2 log(1/δ)) iterations each
// node fails to be covered with probability at most δ. With the paper's
// K = Θ(log^0.1 Δ) this is O(log Δ / log log Δ) rounds. Ghaffari's original
// algorithm is the K = 2 special case (O(log Δ) rounds), so this one module
// provides both, and the K sweep is the bench_ablation_K experiment.
//
// Nodes that are neither in the IS nor covered when the budget expires halt
// with kOutUndecided; run_nmis_then_luby finishes them off with Luby to
// yield a true MIS (the "black-box MIS" ablation of Algorithm 2).
#pragma once

#include <cstdint>

#include "mis/mis.hpp"
#include "sim/network.hpp"

namespace distapx {

struct NmisParams {
  /// Probability-update base K >= 2. The paper's choice is Θ(log^0.1 Δ);
  /// for practical Δ that is 2, and larger K trades the log Δ/log K term
  /// against the K^2 log(1/δ) term (the E6 ablation).
  std::uint32_t K = 2;
  /// Per-node failure probability target δ.
  double delta = 1.0 / 64.0;
  /// The "large enough constant" β of Theorem 3.1.
  double beta = 1.5;
  /// Explicit iteration budget; 0 derives it from Theorem 3.1's formula.
  std::uint32_t iterations = 0;
};

/// Theorem 3.1 iteration budget: beta * (log Δ / log K + K^2 ln(1/δ)).
std::uint32_t nmis_iteration_budget(std::uint32_t max_degree,
                                    const NmisParams& params);

/// Factory for the message-passing NMIS node program (3 rounds/iteration).
sim::ProgramFactory make_nmis_program(const Graph& g, NmisParams params);

/// Runs NMIS on g. The result may have `undecided` nodes.
IsResult run_nmis(const Graph& g, const sim::RunOptions& opts,
                  NmisParams params = {});

/// NMIS followed by Luby on the undecided remainder: a true MIS whose
/// metrics are the sum of both phases. Luby gets the rounds NMIS left.
IsResult run_nmis_then_luby(const Graph& g, const sim::RunOptions& opts,
                            NmisParams params = {});

}  // namespace distapx
