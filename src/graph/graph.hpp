// Immutable simple undirected graph in CSR form.
//
// This is the substrate every algorithm in distapx runs on. Nodes are dense
// ids [0, n); each undirected edge has a single EdgeId shared by both
// endpoints (the line-graph construction and matching algorithms key off
// EdgeId). Node weights for MaxIS and edge weights for matching are carried
// separately (see NodeWeights / EdgeWeights aliases) so one topology can be
// reused across weighted workloads.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace distapx {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Integer weights. The paper assumes W <= poly(n) so a weight fits in one
/// O(log n)-bit message; we use 64-bit and account the actual bits sent.
using Weight = std::int64_t;
using NodeWeights = std::vector<Weight>;
using EdgeWeights = std::vector<Weight>;

/// One directed half of an undirected edge as seen from its owner's
/// adjacency list.
struct HalfEdge {
  NodeId to;
  EdgeId edge;
};

/// Immutable simple undirected graph (no self-loops, no parallel edges).
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(endpoints_.size());
  }

  [[nodiscard]] std::span<const HalfEdge> neighbors(NodeId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::uint32_t degree(NodeId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Maximum degree Δ (0 for the empty graph).
  [[nodiscard]] std::uint32_t max_degree() const noexcept { return max_deg_; }

  /// Endpoints of edge e as (u, v) with u < v.
  [[nodiscard]] std::pair<NodeId, NodeId> endpoints(EdgeId e) const {
    return endpoints_[e];
  }

  /// The endpoint of e that is not v. Requires v to be an endpoint of e.
  [[nodiscard]] NodeId other_endpoint(EdgeId e, NodeId v) const;

  /// Edge id connecting u and v, or kInvalidEdge. O(min degree).
  [[nodiscard]] EdgeId find_edge(NodeId u, NodeId v) const;

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    return find_edge(u, v) != kInvalidEdge;
  }

 private:
  friend class GraphBuilder;

  NodeId n_ = 0;
  std::uint32_t max_deg_ = 0;
  std::vector<std::uint32_t> offsets_;  // size n_+1
  std::vector<HalfEdge> adj_;           // size 2m, sorted by `to` per node
  std::vector<std::pair<NodeId, NodeId>> endpoints_;  // size m, u < v
};

/// Edge-list builder. Edge ids follow add_edge order; build() produces the
/// CSR with every adjacency list ascending by neighbour id.
///
/// add_edge rejects out-of-range endpoints and self-loops with EnsureError
/// at once. Parallel edges are not looked up at add time (callers that may
/// produce duplicates track adjacency themselves); build() rejects them.
/// build() is O(n + m): two counting passes, no comparison sort.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : n_(num_nodes) {}

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(edges_.size());
  }

  /// Adds undirected edge {u, v} and returns its id.
  EdgeId add_edge(NodeId u, NodeId v);

  [[nodiscard]] Graph build() const;

 private:
  NodeId n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;  // normalized u < v
};

}  // namespace distapx
