// Round-synchronous message-passing network (the CONGEST/LOCAL model).
//
// Execution model, following [Pel00]:
//  * All nodes run the same NodeProgram, parameterized by their id and any
//    local input the program object carries (e.g. the node's weight).
//  * init() runs before round 1 and may send. In round r >= 1 every
//    non-halted node receives the messages sent to it in round r-1 (or by
//    init for r = 1), computes, and may send one message per incident edge.
//  * A node halts by calling Ctx::halt(output); halted nodes neither
//    compute nor send, and messages addressed to them are dropped (their
//    program announced whatever neighbors need before halting, as the
//    paper's algorithms do with removed()/addedToIS()).
//  * Under BandwidthPolicy::congest(c) the engine asserts that no directed
//    edge carries more than c * ceil(log2 n) declared bits in any round.
//
// Runs are deterministic: per-node RNG streams derive from RunOptions::seed
// and the node id, and nodes are stepped in id order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/message.hpp"
#include "support/random.hpp"

namespace distapx::sim {

/// LOCAL (unbounded) or CONGEST (c * ceil(log2 n) bits/edge/round).
struct BandwidthPolicy {
  bool bounded = false;
  std::uint32_t multiplier = 8;  // the constant inside O(log n)
  bool enforce = true;           // throw on violation (else just record)

  static BandwidthPolicy local() { return {false, 0, false}; }
  static BandwidthPolicy congest(std::uint32_t c = 8, bool enforce = true) {
    return {true, c, enforce};
  }

  /// Cap in bits for an n-node network (0 = unbounded).
  [[nodiscard]] std::uint32_t cap_bits(NodeId n) const;
};

/// Per-round progress sample delivered to RunOptions::observer.
struct RoundSample {
  std::uint32_t round = 0;
  std::uint64_t messages = 0;   ///< messages sent this round
  std::uint64_t bits = 0;       ///< bits sent this round
  NodeId nodes_halted = 0;      ///< cumulative halted nodes (agents)
};

class Workspace;  // sim/workspace.hpp

struct RunOptions {
  BandwidthPolicy policy = BandwidthPolicy::congest();
  std::uint64_t seed = 1;
  std::uint32_t max_rounds = 1u << 20;
  /// n of the job graph when the run's own graph is derived from it (a
  /// line graph, a compacted bucket), so the CONGEST cap stays
  /// cap_bits(n) of the network the job runs on. 0 = the run's graph is
  /// the job graph. See within().
  NodeId job_nodes = 0;
  /// Buffers the run borrows: the worker's Network and AggEngine scratch.
  /// Null = the run builds a local workspace on the same code path.
  Workspace* workspace = nullptr;
  /// Optional per-round observer (progress curves, debugging). Called
  /// after every round including the init sweep (round 0); the
  /// aggregation engines call it once per super-round with physical
  /// round numbers.
  std::function<void(const RoundSample&)> observer;

  /// The bandwidth cap of a run on an `n`-node graph under these options.
  [[nodiscard]] std::uint32_t cap_bits(NodeId n) const {
    return policy.cap_bits(job_nodes != 0 ? job_nodes : n);
  }
};

struct RunMetrics {
  std::uint32_t rounds = 0;          ///< number of round() sweeps executed
  std::uint64_t messages = 0;        ///< total messages delivered
  std::uint64_t total_bits = 0;      ///< total declared wire bits
  std::uint32_t max_edge_bits = 0;   ///< max bits on one directed edge in one round
  std::uint32_t bandwidth_cap = 0;   ///< cap that applied (0 = none)
  bool completed = false;            ///< all nodes halted before max_rounds
};

/// Accumulates `b` into `a` as a sequential composition: rounds, messages
/// and bits add; the congestion high-water mark is the max; the cap is the
/// strictest any phase ran under.
inline RunMetrics& accumulate(RunMetrics& a, const RunMetrics& b) {
  a.rounds += b.rounds;
  a.messages += b.messages;
  a.total_bits += b.total_bits;
  a.max_edge_bits = a.max_edge_bits > b.max_edge_bits ? a.max_edge_bits
                                                      : b.max_edge_bits;
  a.completed = a.completed && b.completed;
  if (b.bandwidth_cap != 0 &&
      (a.bandwidth_cap == 0 || b.bandwidth_cap < a.bandwidth_cap)) {
    a.bandwidth_cap = b.bandwidth_cap;
  }
  return a;
}

/// Options of the next sub-run of a multi-phase algorithm: `opts` with the
/// sub-run's own `seed`, capped at the rounds that `spent` has left over.
inline RunOptions sub_run(RunOptions opts, std::uint64_t seed,
                          const RunMetrics& spent) {
  opts.seed = seed;
  opts.max_rounds -=
      spent.rounds < opts.max_rounds ? spent.rounds : opts.max_rounds;
  return opts;
}

/// Options of a sub-run on a graph derived from `g` (its line graph, a
/// bucket of its edges): the cap stays that of g's n, or of the job
/// graph's when `opts` already names one.
inline RunOptions within(RunOptions opts, const Graph& g) {
  if (opts.job_nodes == 0) opts.job_nodes = g.num_nodes();
  return opts;
}

struct RunResult {
  RunMetrics metrics;
  std::vector<std::int64_t> outputs;  ///< per node; meaningful iff halted
  std::vector<bool> halted;           ///< per node
};

class Network;

/// Per-node view of the network during one round.
class Ctx {
 public:
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] NodeId num_nodes() const noexcept;
  [[nodiscard]] std::uint32_t degree() const noexcept;
  /// Global Δ; the paper's algorithms assume it is known.
  [[nodiscard]] std::uint32_t max_degree() const noexcept;
  /// Current round (0 during init()).
  [[nodiscard]] std::uint32_t round() const noexcept { return round_; }
  /// Id of the neighbor across `port` (CONGEST nodes learn neighbor ids in
  /// one round; we provide them from the start).
  [[nodiscard]] NodeId neighbor(std::uint32_t port) const;
  /// Port on which `v` is a neighbor, or UINT32_MAX.
  [[nodiscard]] std::uint32_t port_of(NodeId v) const;
  /// EdgeId of the edge behind `port`.
  [[nodiscard]] EdgeId edge_of(std::uint32_t port) const;

  [[nodiscard]] Rng& rng() noexcept { return *rng_; }

  /// Messages delivered this round.
  [[nodiscard]] std::span<const Delivery> inbox() const noexcept;

  /// Queues a copy of `m` on `port` for delivery next round.
  void send(std::uint32_t port, const Message& m);
  /// Queues a copy on every port.
  void broadcast(const Message& m);

  /// Marks this node finished with the given output. Takes effect at the
  /// end of the current callback; messages queued this round are still
  /// delivered.
  void halt(std::int64_t output);

 private:
  friend class Network;
  Network* net_ = nullptr;
  NodeId id_ = 0;
  std::uint32_t round_ = 0;
  Rng* rng_ = nullptr;
};

/// A node's state machine. One instance exists per node; local inputs
/// (weights, parameters) are typically captured by the concrete program.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  /// Round-0 setup; may send messages (delivered in round 1).
  virtual void init(Ctx& ctx) { (void)ctx; }
  /// One synchronous round.
  virtual void round(Ctx& ctx) = 0;
};

using ProgramFactory =
    std::function<std::unique_ptr<NodeProgram>(NodeId node)>;

/// The synchronous engine.
///
/// Message transport uses flat, preallocated buffers that persist across
/// rounds AND across run() calls: sends append a WireMessage record (wide
/// fields to a staged arena, swapped with the inbox arena at delivery) at
/// the arrival port rebind() precomputed, and a stable counting sort by
/// destination rebuilds the per-node inbox spans each round. Sweeps visit
/// an ascending list of the non-halted nodes. A Network instance is
/// therefore cheap to reuse for many seeded runs (each serving worker keeps
/// one in its sim::Workspace for the worker owner's lifetime), with no
/// per-round or per-run vector churn.
class Network {
 public:
  /// An unbound Network; rebind() before run(). Lets pooled workers (the
  /// batch server) own one Network for their whole lifetime and point it
  /// at whichever graph the current work unit needs.
  Network() = default;
  explicit Network(const Graph& g);

  /// Points the engine at `g` in O(n + m), resizing the flat transport
  /// buffers while retaining their capacity. Serving runs on different
  /// graphs back-to-back therefore settles into zero allocation once the
  /// largest graph in the mix has been seen. `g` must outlive the binding.
  void rebind(const Graph& g);

  [[nodiscard]] bool bound() const noexcept { return g_ != nullptr; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// Runs one algorithm to completion (all nodes halted) or to the round
  /// cap. Throws EnsureError on a bandwidth violation when enforcing.
  /// Reentrant with respect to the instance: each call fully resets run
  /// state while retaining buffer capacity.
  RunResult run(const ProgramFactory& factory, const RunOptions& opts);

 private:
  friend class Ctx;

  struct NodeSlot {
    std::unique_ptr<NodeProgram> program;
    Rng rng{0};
    bool halted = false;
    std::int64_t output = 0;
  };

  /// A sent message waiting for end-of-round delivery.
  struct Staged {
    NodeId to;
    std::uint32_t arrival_port;
    WireMessage msg;
  };

  void deliver_and_account(RunMetrics& metrics);

  const Graph* g_ = nullptr;
  std::vector<NodeSlot> slots_;
  std::uint32_t cap_bits_ = 0;
  bool enforce_ = false;

  // Flat transport buffers (see class comment).
  std::vector<Staged> staged_;          // sends of the current round
  std::vector<Delivery> inbox_store_;   // all inboxes, back to back
  std::vector<std::uint32_t> inbox_off_;   // node v's inbox = [off[v], off[v+1])
  std::vector<std::uint32_t> inbox_fill_;  // counting-sort scratch
  std::vector<std::uint64_t> staged_arena_;  // wide fields of staged_
  std::vector<std::uint64_t> inbox_arena_;   // wide fields of inbox_store_
  std::vector<std::uint32_t> adj_base_;    // CSR base of node v's ports
  std::vector<std::uint32_t> rev_port_;    // arrival port, per directed edge
  std::vector<NodeId> active_;             // non-halted nodes, ascending
  std::vector<std::uint32_t> out_bits_;    // per directed edge, this round
  std::vector<std::uint32_t> touched_;     // dirty out_bits_ entries
};

}  // namespace distapx::sim
