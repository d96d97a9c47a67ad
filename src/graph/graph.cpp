#include "graph/graph.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace distapx {

NodeId Graph::other_endpoint(EdgeId e, NodeId v) const {
  const auto [a, b] = endpoints_[e];
  DISTAPX_ASSERT(v == a || v == b);
  return v == a ? b : a;
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  DISTAPX_ASSERT(u < n_ && v < n_);
  if (degree(u) > degree(v)) std::swap(u, v);
  for (const HalfEdge& he : neighbors(u)) {
    if (he.to == v) return he.edge;
  }
  return kInvalidEdge;
}

EdgeId GraphBuilder::add_edge(NodeId u, NodeId v) {
  DISTAPX_ENSURE_MSG(u < n_ && v < n_,
                     "edge (" << u << "," << v << ") out of range n=" << n_);
  DISTAPX_ENSURE_MSG(u != v, "self-loop at node " << u);
  if (u > v) std::swap(u, v);
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.emplace_back(u, v);
  return id;
}

Graph GraphBuilder::build() const {
  Graph g;
  g.n_ = n_;
  g.endpoints_ = edges_;
  g.offsets_.assign(n_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (NodeId v = 0; v < n_; ++v) {
    g.max_deg_ = std::max(g.max_deg_, g.offsets_[v + 1]);
    g.offsets_[v + 1] += g.offsets_[v];
  }

  // Pass 1: group half-edges by owner, in edge order.
  std::vector<HalfEdge> by_owner(2 * edges_.size());
  std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const auto [u, v] = edges_[e];
    by_owner[cursor[u]++] = HalfEdge{v, e};
    by_owner[cursor[v]++] = HalfEdge{u, e};
  }
  // Pass 2: owners t in ascending order append (t, e) to each neighbour's
  // list, so every list fills in ascending `to` order without a sort.
  g.adj_.resize(2 * edges_.size());
  std::copy(g.offsets_.begin(), g.offsets_.end() - 1, cursor.begin());
  for (NodeId t = 0; t < n_; ++t) {
    for (std::uint32_t i = g.offsets_[t]; i < g.offsets_[t + 1]; ++i) {
      const HalfEdge he = by_owner[i];
      g.adj_[cursor[he.to]++] = HalfEdge{t, he.edge};
    }
  }
  for (NodeId v = 0; v < n_; ++v) {
    for (std::uint32_t i = g.offsets_[v]; i + 1 < g.offsets_[v + 1]; ++i) {
      DISTAPX_ENSURE_MSG(g.adj_[i].to != g.adj_[i + 1].to,
                         "parallel edge between " << v << " and "
                                                  << g.adj_[i].to);
    }
  }
  return g;
}

}  // namespace distapx
