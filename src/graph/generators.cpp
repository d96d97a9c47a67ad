#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/assert.hpp"

namespace distapx::gen {

Graph path(NodeId n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph cycle(NodeId n) {
  DISTAPX_ENSURE_MSG(n >= 3, "cycle needs at least 3 nodes");
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  b.add_edge(n - 1, 0);
  return b.build();
}

Graph star(NodeId n) {
  DISTAPX_ENSURE(n >= 1);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

Graph complete(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v);
  return b.build();
}

Graph complete_bipartite(NodeId a, NodeId b) {
  GraphBuilder builder(a + b);
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v) builder.add_edge(u, a + v);
  return builder.build();
}

Graph grid(NodeId rows, NodeId cols) {
  DISTAPX_ENSURE(rows >= 1 && cols >= 1);
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.build();
}

Graph hypercube(std::uint32_t dims) {
  DISTAPX_ENSURE(dims < 31);
  const NodeId n = NodeId{1} << dims;
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t d = 0; d < dims; ++d) {
      const NodeId u = v ^ (NodeId{1} << d);
      if (u > v) b.add_edge(v, u);
    }
  }
  return b.build();
}

Graph gnp(NodeId n, double p, Rng& rng) {
  DISTAPX_ENSURE(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  if (p <= 0.0 || n < 2) return b.build();
  if (p >= 1.0) return complete(n);
  // Geometric skipping over the upper-triangular pair sequence: O(n + m).
  const double log1mp = std::log1p(-p);
  std::uint64_t idx = 0;  // linear index into pairs (u,v), u<v
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  // Row cursor: idx only grows, so the row u holding it only moves forward.
  NodeId u = 0;
  std::uint64_t row_start = 0;  // linear index of the pair (u, u+1)
  for (;;) {
    // Geometric(p) gap: floor(ln(1-U) / ln(1-p)). At tiny p it can exceed
    // 2^64, which lies past the last pair as well.
    const double r = rng.next_double();
    const double gap = std::floor(std::log1p(-r) / log1mp);
    if (gap >= 0x1p64) break;
    const auto skip = static_cast<std::uint64_t>(gap);
    if (skip >= total - idx) break;
    idx += skip;
    while (idx - row_start >= n - 1 - u) {
      row_start += n - 1 - u;
      ++u;
    }
    b.add_edge(u, static_cast<NodeId>(u + 1 + (idx - row_start)));
    ++idx;
  }
  return b.build();
}

Graph bipartite_gnp(NodeId a, NodeId b, double p, Rng& rng) {
  DISTAPX_ENSURE(p >= 0.0 && p <= 1.0);
  GraphBuilder builder(a + b);
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v)
      if (rng.bernoulli(p)) builder.add_edge(u, a + v);
  return builder.build();
}

namespace {

/// Adjacency of a graph under construction whose degrees never exceed
/// `width`: row v of one flat n x width table lists v's neighbours so far.
/// The random generators that can draw a pair twice use it to find
/// duplicates in O(width) without a per-node allocation.
class NeighbourTable {
 public:
  NeighbourTable(NodeId n, std::uint32_t width)
      : width_(width), nbr_(static_cast<std::size_t>(n) * width), deg_(n, 0) {}

  void clear() { std::fill(deg_.begin(), deg_.end(), 0); }

  [[nodiscard]] std::uint32_t degree(NodeId v) const { return deg_[v]; }

  [[nodiscard]] bool adjacent(NodeId u, NodeId v) const {
    const NodeId* row = nbr_.data() + static_cast<std::size_t>(u) * width_;
    return std::find(row, row + deg_[u], v) != row + deg_[u];
  }

  void link(NodeId u, NodeId v) {
    nbr_[static_cast<std::size_t>(u) * width_ + deg_[u]++] = v;
    nbr_[static_cast<std::size_t>(v) * width_ + deg_[v]++] = u;
  }

 private:
  std::uint32_t width_;
  std::vector<NodeId> nbr_;
  std::vector<std::uint32_t> deg_;
};

}  // namespace

Graph random_regular(NodeId n, std::uint32_t d, Rng& rng) {
  DISTAPX_ENSURE_MSG((static_cast<std::uint64_t>(n) * d) % 2 == 0,
                     "n*d must be even");
  DISTAPX_ENSURE(d < n);
  constexpr int kMaxRetries = 64;
  NeighbourTable table(n, d);
  std::vector<NodeId> stubs(static_cast<std::size_t>(n) * d);
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    // Pairing (configuration) model: d stubs per node, random perfect
    // matching of stubs; reject self-loops / parallel edges.
    for (NodeId v = 0; v < n; ++v) {
      std::fill_n(stubs.begin() + static_cast<std::ptrdiff_t>(v) * d, d, v);
    }
    rng.shuffle(stubs);
    table.clear();
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v || table.adjacent(u, v)) {
        ok = false;  // self-loop or duplicate pairing
        break;
      }
      table.link(u, v);
    }
    if (ok) {
      GraphBuilder b(n);
      for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
        b.add_edge(stubs[i], stubs[i + 1]);
      }
      return b.build();
    }
  }
  // Fallback: greedy near-regular construction (max degree still <= d).
  GraphBuilder b(n);
  table.clear();
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  for (std::uint32_t pass = 0; pass < d; ++pass) {
    rng.shuffle(order);
    for (NodeId i = 0; i < n; ++i) {
      const NodeId u = order[i];
      if (table.degree(u) >= d) continue;
      for (NodeId j = i + 1; j < n; ++j) {
        const NodeId v = order[j];
        if (v == u || table.degree(v) >= d || table.adjacent(u, v)) continue;
        table.link(u, v);
        b.add_edge(u, v);
        break;
      }
    }
  }
  return b.build();
}

Graph random_bounded_degree(NodeId n, std::uint32_t d, Rng& rng,
                            double edge_factor) {
  DISTAPX_ENSURE(n >= 2);
  GraphBuilder b(n);
  // A node adjacent to all n-1 others never takes another edge, so no row
  // needs more than min(d, n-1) slots.
  NeighbourTable table(n, std::min<std::uint32_t>(d, n - 1));
  const auto attempts = static_cast<std::uint64_t>(
      edge_factor * static_cast<double>(n) * d / 2.0);
  for (std::uint64_t i = 0; i < attempts; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || table.degree(u) >= d || table.degree(v) >= d ||
        table.adjacent(u, v)) {
      continue;
    }
    table.link(u, v);
    b.add_edge(u, v);
  }
  return b.build();
}

Graph random_tree(NodeId n, Rng& rng) {
  DISTAPX_ENSURE(n >= 1);
  GraphBuilder b(n);
  if (n == 1) return b.build();
  if (n == 2) {
    b.add_edge(0, 1);
    return b.build();
  }
  // Prufer decode.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.next_below(n));
  std::vector<std::uint32_t> deg(n, 1);
  for (NodeId x : prufer) ++deg[x];
  // Min-heap free list via sorted iteration.
  std::vector<bool> used(n, false);
  NodeId ptr = 0;
  while (deg[ptr] != 1) ++ptr;
  NodeId leaf = ptr;
  for (NodeId x : prufer) {
    b.add_edge(leaf, x);
    if (--deg[x] == 1 && x < ptr) {
      leaf = x;
    } else {
      ++ptr;
      while (ptr < n && deg[ptr] != 1) ++ptr;
      leaf = ptr;
    }
  }
  b.add_edge(leaf, n - 1);
  return b.build();
}

Graph power_law(NodeId n, double beta, double avg_degree, Rng& rng) {
  DISTAPX_ENSURE(beta > 1.0);
  std::vector<double> w(n);
  double sum = 0;
  for (NodeId k = 0; k < n; ++k) {
    w[k] = std::pow(static_cast<double>(k + 1), -1.0 / (beta - 1.0));
    sum += w[k];
  }
  const double scale = avg_degree * static_cast<double>(n) / sum;
  for (auto& x : w) x *= scale;
  const double total = avg_degree * static_cast<double>(n);
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double p = std::min(1.0, w[u] * w[v] / total);
      if (p > 0 && rng.bernoulli(p)) b.add_edge(u, v);
    }
  }
  return b.build();
}

Graph caterpillar(NodeId spine, NodeId legs) {
  DISTAPX_ENSURE(spine >= 1);
  GraphBuilder b(spine + spine * legs);
  for (NodeId s = 0; s + 1 < spine; ++s) b.add_edge(s, s + 1);
  for (NodeId s = 0; s < spine; ++s)
    for (NodeId l = 0; l < legs; ++l) b.add_edge(s, spine + s * legs + l);
  return b.build();
}

Graph barbell(NodeId k, NodeId bridge) {
  DISTAPX_ENSURE(k >= 2);
  const NodeId n = 2 * k + bridge;
  GraphBuilder b(n);
  auto clique = [&](NodeId base) {
    for (NodeId u = 0; u < k; ++u)
      for (NodeId v = u + 1; v < k; ++v) b.add_edge(base + u, base + v);
  };
  clique(0);
  clique(k + bridge);
  // Path through the bridge connecting node k-1 of the first clique to
  // node 0 of the second.
  NodeId prev = k - 1;
  for (NodeId i = 0; i < bridge; ++i) {
    b.add_edge(prev, k + i);
    prev = k + i;
  }
  b.add_edge(prev, k + bridge);
  return b.build();
}

Graph complete_multipartite(const std::vector<NodeId>& parts) {
  NodeId n = 0;
  for (NodeId p : parts) n += p;
  GraphBuilder b(n);
  NodeId base_u = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    NodeId base_v = base_u + parts[i];
    for (std::size_t j = i + 1; j < parts.size(); ++j) {
      for (NodeId u = 0; u < parts[i]; ++u)
        for (NodeId v = 0; v < parts[j]; ++v)
          b.add_edge(base_u + u, base_v + v);
      base_v += parts[j];
    }
    base_u += parts[i];
  }
  return b.build();
}

Graph balanced_binary_tree(std::uint32_t levels) {
  DISTAPX_ENSURE(levels >= 1 && levels < 31);
  const NodeId n = (NodeId{1} << levels) - 1;
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge(v, (v - 1) / 2);
  return b.build();
}

Graph lollipop(NodeId k, NodeId tail) {
  DISTAPX_ENSURE(k >= 2);
  GraphBuilder b(k + tail);
  for (NodeId u = 0; u < k; ++u)
    for (NodeId v = u + 1; v < k; ++v) b.add_edge(u, v);
  NodeId prev = k - 1;
  for (NodeId i = 0; i < tail; ++i) {
    b.add_edge(prev, k + i);
    prev = k + i;
  }
  return b.build();
}

NodeWeights uniform_node_weights(NodeId n, Weight max_w, Rng& rng) {
  DISTAPX_ENSURE(max_w >= 1);
  NodeWeights w(n);
  for (auto& x : w) x = rng.next_in(1, max_w);
  return w;
}

NodeWeights exponential_node_weights(NodeId n, Weight max_w, Rng& rng) {
  DISTAPX_ENSURE(max_w >= 1);
  NodeWeights w(n);
  const double lambda =
      std::log(static_cast<double>(max_w)) / 3.0;  // ~e^3 dynamic range tail
  for (auto& x : w) {
    const double e = -std::log1p(-rng.next_double());
    x = std::clamp<Weight>(static_cast<Weight>(std::exp(e * lambda)), 1,
                           max_w);
  }
  return w;
}

NodeWeights log_uniform_node_weights(NodeId n, Weight max_w, Rng& rng) {
  DISTAPX_ENSURE(max_w >= 1);
  const double log_max = std::log2(static_cast<double>(max_w));
  NodeWeights w(n);
  for (auto& x : w) {
    x = std::clamp<Weight>(
        static_cast<Weight>(std::exp2(rng.next_double() * log_max)), 1,
        max_w);
  }
  return w;
}

NodeWeights unit_node_weights(NodeId n) { return NodeWeights(n, 1); }

EdgeWeights uniform_edge_weights(EdgeId m, Weight max_w, Rng& rng) {
  DISTAPX_ENSURE(max_w >= 1);
  EdgeWeights w(m);
  for (auto& x : w) x = rng.next_in(1, max_w);
  return w;
}

EdgeWeights unit_edge_weights(EdgeId m) { return EdgeWeights(m, 1); }

}  // namespace distapx::gen
