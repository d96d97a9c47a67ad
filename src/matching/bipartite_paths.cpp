#include "matching/bipartite_paths.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/assert.hpp"

namespace distapx {
namespace {

constexpr std::uint32_t kNoLayer = 0xffffffffu;

/// Free A-nodes in ascending id order: the forward sweep's round-1 senders.
std::vector<NodeId> free_left_nodes(const Bipartition& parts,
                                    const std::vector<NodeId>& mate) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < static_cast<NodeId>(mate.size()); ++v) {
    if (parts.is_left(v) && mate[v] == kInvalidNode) out.push_back(v);
  }
  return out;
}

/// Workspace for one forward+backward sweep of the Claim B.5/B.6
/// traversal. The dense per-node and per-edge arrays are allocated once;
/// a sweep records what it writes, and reset() clears only that.
struct Traversal {
  std::vector<double> fwd_edge;       // value forwarded along each edge
  std::vector<std::uint32_t> layer;   // first-receipt round per node
  std::vector<double> in_val;         // received sum per node
  std::vector<double> out_val;        // value an A-node forwards
  std::vector<std::uint32_t> send_round;  // round an A-node forwards (odd)
  std::vector<double> end_mass;       // z(b) at free B-nodes of layer d
  std::vector<double> mass;           // Σ_{P ∋ v} p(P) per node (backward)
  std::vector<NodeId> touched;        // nodes whose entries above are set
  std::vector<NodeId> ends;           // free B-nodes reached at layer d
  std::vector<NodeId> receivers;      // B-nodes first reached this round
  // Per forward round r (index r/2): the edges that carried value,
  // grouped by sender in sending order, and the A-nodes due to send.
  struct Carried {
    EdgeId e;
    NodeId a, b;
  };
  std::vector<std::vector<Carried>> round_edges;
  std::vector<std::vector<NodeId>> round_senders;
  bool any_path = false;

  Traversal(NodeId n, EdgeId m)
      : fwd_edge(m, 0.0),
        layer(n, kNoLayer),
        in_val(n, 0.0),
        out_val(n, 0.0),
        send_round(n, 0),
        end_mass(n, 0.0),
        mass(n, 0.0) {}

  void reset() {
    for (NodeId v : touched) {
      layer[v] = kNoLayer;
      in_val[v] = 0.0;
      out_val[v] = 0.0;
      send_round[v] = 0;
      end_mass[v] = 0.0;
      mass[v] = 0.0;
    }
    for (auto& edges : round_edges) {
      for (const Carried& c : edges) fwd_edge[c.e] = 0.0;
      edges.clear();
    }
    for (auto& senders : round_senders) senders.clear();
    touched.clear();
    ends.clear();
    any_path = false;
  }

  /// usable(v) gates participation; alpha == nullptr runs the unit-count
  /// variant (Claim B.5). `strict` enforces the no-shorter-path
  /// precondition. `free_left` lists candidate round-1 senders ascending.
  template <typename Usable>
  void run(const Graph& g, [[maybe_unused]] const Bipartition& parts,
           const std::vector<NodeId>& mate, std::uint32_t d, Usable usable,
           const std::vector<double>* alpha, bool strict,
           const std::vector<NodeId>& free_left) {
    reset();
    const auto alpha_of = [&](NodeId v) {
      return alpha != nullptr ? (*alpha)[v] : 1.0;
    };
    const std::uint32_t rounds = (d + 1) / 2;
    if (round_edges.size() < rounds) {
      round_edges.resize(rounds);
      round_senders.resize(rounds);
    }

    // Forward: free A-nodes start at round 1; matched B-nodes relay to
    // their mates, which forward two rounds later (BFS layering, B.5).
    std::vector<NodeId>* senders = &round_senders[0];
    for (NodeId v : free_left) {
      if (mate[v] == kInvalidNode && usable(v)) {
        out_val[v] = alpha_of(v);
        send_round[v] = 1;
        senders->push_back(v);
        touched.push_back(v);
      }
    }
    for (std::uint32_t r = 1; r <= d; r += 2) {
      std::vector<Carried>& edges = round_edges[r / 2];
      receivers.clear();
      for (NodeId a : *senders) {
        if (out_val[a] <= 0.0) continue;
        for (const HalfEdge& he : g.neighbors(a)) {
          const NodeId b = he.to;
          if (b == mate[a] || !usable(b)) continue;
          DISTAPX_ASSERT(!parts.is_left(b));
          if (layer[b] == kNoLayer) {
            layer[b] = r;
            receivers.push_back(b);
            touched.push_back(b);
          }
          if (layer[b] == r) {
            fwd_edge[he.edge] = out_val[a];
            in_val[b] += out_val[a];
            edges.push_back({he.edge, a, b});
          }
          // Later receipts indicate longer paths; they are discarded.
        }
      }
      std::vector<NodeId>* next = r < d ? &round_senders[r / 2 + 1] : nullptr;
      for (NodeId b : receivers) {
        if (mate[b] == kInvalidNode) {
          if (r == d) {
            end_mass[b] = in_val[b] * alpha_of(b);
            ends.push_back(b);
            any_path = true;
          } else {
            DISTAPX_ENSURE_MSG(!strict,
                               "augmenting path shorter than d=" << d
                                   << " found at node " << b);
          }
          continue;
        }
        if (r == d) continue;
        const NodeId a = mate[b];
        if (!usable(a)) continue;
        layer[a] = r + 1;
        in_val[a] = in_val[b];
        out_val[a] = in_val[a] * alpha_of(a);
        send_round[a] = r + 2;
        next->push_back(a);
        touched.push_back(a);
      }
      senders = next;
    }

    // Backward: split masses proportionally to forward contributions
    // (Claim B.6), so mass[v] = Σ over paths through v. Only mass[a] sums
    // several terms; each sender's edges are walked by id, so every sum
    // adds in the order of a scan over all edges.
    for (NodeId b : ends) {
      if (end_mass[b] > 0.0) mass[b] = end_mass[b];
    }
    const auto by_id = [](const Carried& x, const Carried& y) {
      return x.e < y.e;
    };
    for (std::uint32_t r = d;; r -= 2) {
      // B-nodes of layer r split to the A-nodes that fed them.
      std::vector<Carried>& edges = round_edges[r / 2];
      for (auto first = edges.begin(); first != edges.end();) {
        auto last = first;
        while (last != edges.end() && last->a == first->a) ++last;
        std::sort(first, last, by_id);
        for (; first != last; ++first) {
          const auto [e, a, b] = *first;
          if (in_val[b] <= 0.0 || mass[b] <= 0.0) continue;
          mass[a] += mass[b] * (fwd_edge[e] / in_val[b]);
        }
      }
      if (r == 1) break;
      // A-senders of round r hand their mass to their mates (layer r-2).
      for (NodeId a : round_senders[r / 2]) {
        if (mate[a] != kInvalidNode) mass[mate[a]] = mass[a];
      }
    }
  }
};

}  // namespace

std::vector<double> count_augmenting_paths_per_node(
    const Graph& g, const Bipartition& parts,
    const std::vector<NodeId>& mate, std::uint32_t d,
    const std::vector<bool>& active) {
  const NodeId n = g.num_nodes();
  DISTAPX_ENSURE(d % 2 == 1);
  DISTAPX_ENSURE(parts.side.size() == n);
  DISTAPX_ENSURE(mate.size() == n);
  DISTAPX_ENSURE(active.empty() || active.size() == n);
  auto usable = [&](NodeId v) { return active.empty() || active[v]; };
  Traversal t(n, g.num_edges());
  t.run(g, parts, mate, d, usable, nullptr, /*strict=*/false,
        free_left_nodes(parts, mate));
  return std::move(t.mass);
}

AugPathSearchResult find_and_flip_aug_paths_bipartite(
    const Graph& g, const Bipartition& parts, std::vector<NodeId>& mate,
    std::vector<bool>& active, const AugPathSearchParams& params, Rng& rng) {
  const NodeId n = g.num_nodes();
  DISTAPX_ENSURE(params.d % 2 == 1);
  DISTAPX_ENSURE(params.K >= 2);
  DISTAPX_ENSURE(parts.side.size() == n);
  DISTAPX_ENSURE(mate.size() == n);
  DISTAPX_ENSURE(active.size() == n);
  const std::uint32_t d = params.d;
  const double K = params.K;
  const double shrink = std::pow(K, -2.0 * d);
  const double delta_cap = std::max<double>(g.max_degree(), 4);
  const double floor =
      std::pow(delta_cap, -20.0 / std::max(params.epsilon, 1e-3));
  const double heavy_bar = 1.0 / (10.0 * d);
  const double good_bar = 1.0 / (d * std::pow(K, 2.0 * d));
  const std::uint64_t good_threshold =
      params.good_threshold != 0
          ? params.good_threshold
          : std::min<std::uint64_t>(
                1000000,
                static_cast<std::uint64_t>(std::ceil(
                    params.beta * d * std::pow(K, 2.0 * d) *
                    std::log(1.0 / params.delta))) +
                    1);

  // Attenuations: 1/K at free A-nodes, 1 elsewhere (Claim B.8 α0).
  const std::vector<NodeId> free_left = free_left_nodes(parts, mate);
  std::vector<double> alpha(n, 1.0), alpha0(n, 1.0);
  for (NodeId v : free_left) {
    alpha0[v] = 1.0 / K;
    alpha[v] = alpha0[v];
  }
  std::vector<std::uint64_t> good_count(n, 0);
  std::vector<bool> phase_blocked(n, false);
  std::vector<EdgeId> matched_edge(n, kInvalidEdge);
  for (NodeId v = 0; v < n; ++v) {
    if (mate[v] != kInvalidNode) matched_edge[v] = g.find_edge(v, mate[v]);
  }

  AugPathSearchResult result;
  auto usable = [&](NodeId v) { return active[v] && !phase_blocked[v]; };
  Traversal t(n, g.num_edges()), tl(n, g.num_edges());
  std::vector<bool> heavy(n, false);
  std::vector<NodeId> heavy_nodes;
  // Usable nodes whose α differs from α0. A light node at α0 is a fixed
  // point of min(α0, α·K), so attenuation visits only these and the heavy.
  std::vector<NodeId> attenuated;
  std::vector<bool> is_attenuated(n, false);
  std::vector<NodeId> good_moved;
  std::vector<std::uint32_t> tokens_at(n, 0);

  for (std::uint32_t it = 0; it < params.max_iterations; ++it) {
    t.run(g, parts, mate, d, usable, &alpha, /*strict=*/true, free_left);
    if (!t.any_path) {
      result.drained = true;
      break;
    }
    ++result.iterations;
    result.rounds += 6 * d + 4;

    // Heaviness (Def. B.7) and the light-restricted pass for good rounds.
    for (NodeId v : t.touched) {
      if (t.mass[v] >= heavy_bar) {
        heavy[v] = true;
        heavy_nodes.push_back(v);
      }
    }
    auto usable_light = [&](NodeId v) { return usable(v) && !heavy[v]; };
    tl.run(g, parts, mate, d, usable_light, &alpha, /*strict=*/true,
           free_left);
    good_moved.clear();
    for (NodeId v : tl.touched) {
      if (usable(v) && tl.mass[v] >= good_bar) {
        ++good_count[v];
        good_moved.push_back(v);
      }
    }

    // Token marking: free B endpoints initiate with probability equal to
    // their path mass (heavy endpoints abstain); tokens walk backwards,
    // colliding tokens die; survivors are disjoint augmenting paths.
    struct Token {
      NodeId at;
      NodePath nodes;  // from the B end backwards
    };
    std::vector<Token> tokens;
    std::sort(t.ends.begin(), t.ends.end());
    for (NodeId b : t.ends) {
      if (t.end_mass[b] <= 0.0 || heavy[b] || !usable(b)) continue;
      const double z = std::min(t.end_mass[b], 1.0);
      if (rng.bernoulli(z)) tokens.push_back(Token{b, {b}});
    }
    // Kill colliding tokens at their current nodes.
    auto kill_collisions = [&] {
      for (const Token& tok : tokens) ++tokens_at[tok.at];
      std::vector<Token> live;
      for (Token& tok : tokens) {
        if (tokens_at[tok.at] == 1) live.push_back(std::move(tok));
      }
      for (const Token& tok : tokens) tokens_at[tok.at] = 0;
      tokens = std::move(live);
    };
    for (std::uint32_t r = d; !tokens.empty(); r -= 2) {
      kill_collisions();
      // Each token picks a contributing edge proportionally.
      for (Token& tok : tokens) {
        const NodeId b = tok.at;
        DISTAPX_ASSERT(t.layer[b] == r);
        double x = rng.next_double() * t.in_val[b];
        NodeId chosen = kInvalidNode;
        for (const HalfEdge& he : g.neighbors(b)) {
          const NodeId a = he.to;
          if (t.fwd_edge[he.edge] <= 0.0 || t.send_round[a] != r) continue;
          chosen = a;
          x -= t.fwd_edge[he.edge];
          if (x <= 0.0) break;
        }
        DISTAPX_ENSURE(chosen != kInvalidNode);
        tok.at = chosen;
        tok.nodes.push_back(chosen);
      }
      kill_collisions();
      if (r == 1) break;
      for (Token& tok : tokens) {
        const NodeId b_prev = mate[tok.at];
        DISTAPX_ASSERT(b_prev != kInvalidNode);
        tok.at = b_prev;
        tok.nodes.push_back(b_prev);
      }
    }
    // Survivors reached free A-nodes: flip and block their nodes.
    for (Token& tok : tokens) {
      NodePath path(tok.nodes.rbegin(), tok.nodes.rend());
      DISTAPX_ASSERT(mate[path.front()] == kInvalidNode);
      flip_augmenting_path(g, mate, matched_edge, path);
      for (NodeId v : path) phase_blocked[v] = true;
      result.flipped.push_back(std::move(path));
    }

    // Attenuation dynamics (Claim B.8 rule) on the heavy nodes and the
    // nodes still recovering toward α0; nodes that leave the usable set
    // never move again and are dropped.
    for (NodeId v : heavy_nodes) {
      if (!is_attenuated[v]) {
        is_attenuated[v] = true;
        attenuated.push_back(v);
      }
    }
    std::size_t kept = 0;
    for (NodeId v : attenuated) {
      if (usable(v) && (parts.is_left(v) || mate[v] == kInvalidNode)) {
        if (heavy[v]) {
          alpha[v] = std::max(alpha[v] * shrink, floor);
        } else {
          alpha[v] = std::min(alpha0[v], alpha[v] * K);
        }
      }
      if (usable(v) && alpha[v] != alpha0[v]) {
        attenuated[kept++] = v;
      } else {
        is_attenuated[v] = false;
      }
    }
    attenuated.resize(kept);
    for (NodeId v : heavy_nodes) heavy[v] = false;
    heavy_nodes.clear();

    // Deactivation after too many good iterations (Lemma B.10). Only a
    // count that moved this iteration can newly cross the threshold.
    std::sort(good_moved.begin(), good_moved.end());
    for (NodeId v : good_moved) {
      if (active[v] && !phase_blocked[v] && good_count[v] > good_threshold) {
        active[v] = false;
        result.deactivated.push_back(v);
      }
    }
  }
  if (!result.drained) {
    // Iteration cap: deactivate whatever still carries paths so callers
    // retain the maximality-on-active-nodes invariant.
    t.run(g, parts, mate, d, usable, &alpha, /*strict=*/true, free_left);
    result.drained = !t.any_path;  // the last iteration took every path
    std::sort(t.touched.begin(), t.touched.end());
    for (NodeId v : t.touched) {
      if (t.mass[v] > 0.0 && active[v]) {
        active[v] = false;
        result.deactivated.push_back(v);
      }
    }
  }
  return result;
}

}  // namespace distapx
