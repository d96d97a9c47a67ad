// Per-worker engine buffers that outlive a run.
//
// A Workspace holds what the two engines allocate per run: the message
// transport of a Network and the flat per-agent buffers of the
// aggregation engine (sim/aggregation.hpp). Every run borrows the one its
// RunOptions::workspace names; a run without one builds a local workspace
// on the same code path. The owner — a socket lane, or one batch
// invocation — keeps one workspace per worker thread, so its buffers grow
// to the largest run the worker has served and then stop allocating. What
// a set of workspaces retains is therefore bounded by workers x the
// largest run's working set, the same as the concurrent peak of the runs
// themselves.
//
// Binding: the Network is rebound to each run's graph, except that
// consecutive runs on the graph the owner hold()s keep their binding.
// Graph addresses repeat once a graph is freed, so a pointer match alone
// is not a graph match: only a held graph (one the owner keeps alive and
// unchanged) is trusted, and reset() forgets it whenever the owner's
// graphs may have been freed — the batch server does so at the start of
// every serve(). A run that throws leaves the workspace reusable: every
// run resets what it reads.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "support/random.hpp"

namespace distapx::sim {

/// The aggregation engine's buffers (sim/aggregation.cpp). Each run
/// reassigns them; only their capacity carries over.
struct AggScratch {
  std::vector<std::uint64_t> states;      ///< fields per agent
  std::vector<char> halted;               ///< per agent
  std::vector<Rng> rngs;                  ///< per agent
  std::vector<std::uint64_t> aggregates;  ///< aggregators per agent
  std::vector<std::uint64_t> extracted;   ///< one column per aggregator
  std::vector<std::uint32_t> live;        ///< non-halted agents, ascending
  std::vector<NodeId> hubs;  ///< line modes: nodes with a live incident edge
  std::vector<std::uint32_t> live_incident;  ///< line modes: per node
  std::vector<std::uint64_t> suffix;         ///< line mode fold scratch
};

class Workspace {
 public:
  /// The Network, bound to `g`: rebound unless `g` is the held graph and
  /// the Network is still bound to it.
  Network& network(const Graph& g);

  /// Declares `g` alive and unchanged until the next reset(), so runs on
  /// it keep their binding.
  void hold(const Graph& g) noexcept { held_ = &g; }

  /// Forgets the held graph and the binding.
  void reset() noexcept { held_ = bound_ = nullptr; }

  [[nodiscard]] AggScratch& agg() noexcept { return agg_; }

 private:
  Network net_;
  AggScratch agg_;
  const Graph* held_ = nullptr;
  const Graph* bound_ = nullptr;
};

/// Runs `factory` on `g` in opts.workspace's Network (a local one when
/// opts carries none).
RunResult run_network(const Graph& g, const ProgramFactory& factory,
                      const RunOptions& opts);

}  // namespace distapx::sim
