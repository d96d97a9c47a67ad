// Local aggregation algorithms (paper Defs. 2.4-2.7) and their
// congestion-free execution on line graphs (Theorem 2.8).
//
// An AggProgram is an algorithm whose per-round neighborhood access is
// restricted to *aggregate functions*: order-invariant folds with a joining
// function phi such that f(X1 ∪ X2) = phi(f(X1), f(X2)). Each agent
// publishes an O(log n)-bit state every round and receives, next round, the
// aggregate of its neighbors' published states for each declared
// aggregator.
//
// Two executions are provided:
//
//  * run_on_nodes   — agents are the nodes of a graph. One physical round
//    per super-round; each directed edge carries the sender's state.
//  * run_on_line_graph — agents are the EDGES of a base graph (i.e. the
//    nodes of L(G)), executed with the Theorem 2.8 mechanism: every edge's
//    state is mirrored at both endpoints; each endpoint locally folds the
//    states of its other incident edges and sends one partial aggregate
//    over the edge itself; the primary endpoint joins the two partials,
//    steps the agent, and sends the refreshed state back over the same
//    edge. Two physical rounds per super-round and O(log n) bits per
//    physical edge — never the Θ(Δ) blowup of naive simulation. No
//    explicit line graph is materialized.
//
// Both execute live work only: per super-round the live agents step, folds
// run for live agents (line mode: at nodes with a live incident edge), and
// a halted agent's last published state keeps feeding its neighbours'
// folds. Runs borrow RunOptions::workspace's buffers and report each
// super-round to RunOptions::observer.
//
// naive_line_congestion_bits computes what the naive simulation would load
// onto the worst physical edge, for the Sec. 2.4 ablation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "support/random.hpp"

namespace distapx::sim {

/// The closed set of joining functions phi, so the engine folds through an
/// inlined join rather than an indirect call per incidence. kOr / kAnd
/// yield 0 or 1 (any / all nonzero); kSum saturates.
enum class Fold { kOr, kAnd, kSum, kMax, kMin };

/// Identity element of `f` (the empty-character case of Def. 2.4).
constexpr std::uint64_t fold_identity(Fold f) {
  return f == Fold::kAnd ? 1 : f == Fold::kMin ? ~std::uint64_t{0} : 0;
}

/// One aggregate function over neighbor states (Def. 2.5): a commutative,
/// associative fold of per-neighbor extracted values.
struct Aggregator {
  /// Value a neighbor contributes, computed from its published state.
  std::function<std::uint64_t(std::span<const std::uint64_t>)> extract;
  /// Joining function phi.
  Fold fold = Fold::kOr;
  /// Declared wire width of a partial aggregate.
  int result_bits = 1;
};

/// Pre-built aggregators for the common cases (Obs. 2.6 and Thm. 2.9).
Aggregator agg_or(std::function<std::uint64_t(std::span<const std::uint64_t>)>
                      extract);
Aggregator agg_and(std::function<std::uint64_t(std::span<const std::uint64_t>)>
                       extract);
Aggregator agg_sum(std::function<std::uint64_t(std::span<const std::uint64_t>)>
                       extract,
                   int result_bits);
Aggregator agg_max(std::function<std::uint64_t(std::span<const std::uint64_t>)>
                       extract,
                   int result_bits);
Aggregator agg_min(std::function<std::uint64_t(std::span<const std::uint64_t>)>
                       extract,
                   int result_bits);

/// Per-agent view during one super-round.
class AggCtx {
 public:
  /// Constructed by the engine; user programs only consume it.
  AggCtx(std::uint32_t agent, std::uint32_t round, std::uint32_t degree,
         Rng* rng, std::span<const std::uint64_t> aggregates,
         std::span<std::uint64_t> state)
      : agent_(agent),
        round_(round),
        degree_(degree),
        rng_(rng),
        aggregates_(aggregates),
        state_(state) {}

  /// Agent id: NodeId in node mode, EdgeId (line-node) in line mode.
  [[nodiscard]] std::uint32_t agent() const noexcept { return agent_; }
  /// Super-round number (0 during init()).
  [[nodiscard]] std::uint32_t round() const noexcept { return round_; }
  /// Number of neighbors of this agent (line degree in line mode).
  [[nodiscard]] std::uint32_t degree() const noexcept { return degree_; }
  [[nodiscard]] Rng& rng() noexcept { return *rng_; }

  /// Aggregate results, indexed like AggProgram::aggregators(). Empty
  /// during init().
  [[nodiscard]] std::span<const std::uint64_t> aggregates() const noexcept {
    return aggregates_;
  }

  /// Own state fields; mutations become visible to neighbors next round.
  [[nodiscard]] std::span<std::uint64_t> state() noexcept { return state_; }

  void halt(std::int64_t output) {
    halted_ = true;
    output_ = output;
  }

  /// Engine-side reads after the step.
  [[nodiscard]] bool halt_requested() const noexcept { return halted_; }
  [[nodiscard]] std::int64_t halt_output() const noexcept { return output_; }

 private:
  std::uint32_t agent_ = 0;
  std::uint32_t round_ = 0;
  std::uint32_t degree_ = 0;
  Rng* rng_ = nullptr;
  std::span<const std::uint64_t> aggregates_;
  std::span<std::uint64_t> state_;
  bool halted_ = false;
  std::int64_t output_ = 0;
};

/// A local aggregation algorithm: fixed state layout + aggregators + a
/// per-agent step function. The object is a stateless policy; all per-agent
/// state lives in the engine.
class AggProgram {
 public:
  virtual ~AggProgram() = default;

  /// Declared wire widths of the state fields (Def. 2.7 requires
  /// |D_{v,i}| = O(log n); the engine enforces the CONGEST cap on the sum).
  [[nodiscard]] virtual std::vector<int> state_bits() const = 0;

  [[nodiscard]] virtual std::vector<Aggregator> aggregators() const = 0;

  virtual void init(AggCtx& ctx) = 0;
  virtual void round(AggCtx& ctx) = 0;
};

struct AggRunResult {
  RunMetrics metrics;       ///< physical-round accounting
  std::uint32_t super_rounds = 0;
  std::vector<std::int64_t> outputs;  ///< per agent
  std::vector<bool> halted;
};

/// Runs `prog` with agents = nodes of `g`.
AggRunResult run_on_nodes(const Graph& g, AggProgram& prog,
                          const RunOptions& opts);

/// Runs `prog` with agents = edges of `base` (the nodes of L(base)) via the
/// Theorem 2.8 mechanism. Physical bit accounting is done on the edges of
/// `base`.
AggRunResult run_on_line_graph(const Graph& base, AggProgram& prog,
                               const RunOptions& opts);

/// The naive simulation the paper contrasts against (Sec. 2.4): every
/// line-node's state is forwarded verbatim to each line-neighbor, so a
/// physical edge {u,v} carries the states of all other edges incident to u
/// (towards v) and vice versa — Θ(Δ·log n) bits per edge per round.
/// Semantics (and outputs, per seed) are identical to run_on_line_graph;
/// only the transport cost differs, which is the point of the E7 ablation.
/// The bandwidth cap is recorded but never enforced (it would always trip).
AggRunResult run_on_line_graph_naive(const Graph& base, AggProgram& prog,
                                     const RunOptions& opts);

/// Worst directed-edge load (bits/round) of naively simulating a line-graph
/// algorithm whose state is `state_bits` wide: the secondary endpoint of an
/// edge must forward the states of all its other incident edges.
std::uint32_t naive_line_congestion_bits(const Graph& base, int state_bits);

}  // namespace distapx::sim
