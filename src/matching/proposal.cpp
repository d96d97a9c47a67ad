#include "matching/proposal.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "graph/algos.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace distapx {
namespace {

enum MsgType : std::uint32_t {
  kPropose = 1,
  kAccept = 2,
  kMatchedAnnounce = 3,
};

// Node outputs.
constexpr std::int64_t kOutIsolated = -1;  // unmatched, no free neighbors
constexpr std::int64_t kOutUnlucky = -2;   // unmatched at budget exhaustion

class ProposalProgram final : public sim::NodeProgram {
 public:
  ProposalProgram(bool is_left, std::uint32_t iterations)
      : is_left_(is_left), iterations_(iterations) {}

  void init(sim::Ctx& ctx) override {
    if (ctx.degree() == 0) {
      ctx.halt(kOutIsolated);
      return;
    }
    alive_.assign(ctx.degree(), true);
  }

  void round(sim::Ctx& ctx) override {
    const bool left_phase = (ctx.round() - 1) % 2 == 0;
    if (is_left_) {
      if (!left_phase) return;
      for (const auto& d : ctx.inbox()) {
        if (d.msg.type() == kAccept) {
          ctx.halt(static_cast<std::int64_t>(ctx.edge_of(d.port)));
          return;
        }
        if (d.msg.type() == kMatchedAnnounce) alive_[d.port] = false;
      }
      if (std::none_of(alive_.begin(), alive_.end(),
                       [](bool a) { return a; })) {
        ctx.halt(kOutIsolated);
        return;
      }
      if (iteration_ >= iterations_) {
        ctx.halt(kOutUnlucky);
        return;
      }
      ++iteration_;
      // Propose on a uniformly random remaining edge.
      std::uint32_t count = 0;
      for (bool a : alive_) count += a ? 1 : 0;
      std::uint64_t pick = ctx.rng().next_below(count);
      for (std::uint32_t p = 0; p < alive_.size(); ++p) {
        if (!alive_[p]) continue;
        if (pick-- == 0) {
          ctx.send(p, sim::Message(kPropose));
          break;
        }
      }
      return;
    }
    // Right side: accept the highest-id proposal.
    if (left_phase) {
      // Rights act on even rounds; the final one is 2*iterations, after
      // which no proposals can arrive.
      if (ctx.round() >= 2 * iterations_ + 1) ctx.halt(kOutIsolated);
      return;
    }
    std::uint32_t best_port = UINT32_MAX;
    NodeId best_id = 0;
    for (const auto& d : ctx.inbox()) {
      if (d.msg.type() != kPropose) continue;
      const NodeId sender = ctx.neighbor(d.port);
      if (best_port == UINT32_MAX || sender > best_id) {
        best_port = d.port;
        best_id = sender;
      }
    }
    if (best_port == UINT32_MAX) {
      if (ctx.round() >= 2 * iterations_) ctx.halt(kOutIsolated);
      return;
    }
    ctx.send(best_port, sim::Message(kAccept));
    sim::Message announce(kMatchedAnnounce);
    for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
      if (p != best_port) ctx.send(p, announce);
    }
    ctx.halt(static_cast<std::int64_t>(ctx.edge_of(best_port)));
  }

 private:
  bool is_left_;
  std::uint32_t iterations_;
  std::uint32_t iteration_ = 0;
  std::vector<bool> alive_;
};

}  // namespace

std::uint32_t proposal_iteration_budget(std::uint32_t max_degree,
                                        const ProposalParams& params) {
  if (params.iterations != 0) return params.iterations;
  DISTAPX_ENSURE(params.epsilon > 0 && params.epsilon < 1);
  const double log_delta =
      std::log2(static_cast<double>(std::max<std::uint32_t>(max_degree, 4)));
  const double log_inv_eps = std::log2(1.0 / params.epsilon) + 1;
  auto rounds_for = [&](double K) {
    return K * log_inv_eps + log_delta / std::log2(K);
  };
  double K = static_cast<double>(params.K);
  if (params.K == 0) {
    // Minimize K log(1/ε) + log Δ / log K over small integer K (the lemma's
    // K ≈ log Δ / log(1/ε) up to the integrality of the shrink factor).
    K = 2;
    for (std::uint32_t k = 3; k <= 64; ++k) {
      if (rounds_for(k) < rounds_for(K)) K = k;
    }
  }
  DISTAPX_ENSURE(K >= 2);
  return static_cast<std::uint32_t>(std::ceil(2.0 * rounds_for(K))) + 1;
}

ProposalResult run_proposal_matching_bipartite(const Graph& g,
                                               const Bipartition& parts,
                                               const sim::RunOptions& opts,
                                               ProposalParams params) {
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    DISTAPX_ENSURE_MSG(parts.side[u] != parts.side[v],
                       "proposal matching requires a bipartite graph");
  }
  const std::uint32_t iters =
      proposal_iteration_budget(g.max_degree(), params);
  sim::RunOptions capped = opts;
  capped.max_rounds = std::min(opts.max_rounds, 2 * iters + 4);
  sim::Network net(g);
  const auto run = net.run(
      [&parts, iters](NodeId v) {
        return std::make_unique<ProposalProgram>(parts.is_left(v), iters);
      },
      capped);

  ProposalResult out;
  out.metrics = run.metrics;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!run.halted[v]) continue;
    const std::int64_t o = run.outputs[v];
    if (o >= 0 && parts.is_left(v)) {
      out.matching.push_back(static_cast<EdgeId>(o));
    } else if (o == kOutUnlucky && parts.is_left(v)) {
      out.unlucky.push_back(v);
    }
  }
  DISTAPX_ENSURE(is_matching(g, out.matching));
  return out;
}

ProposalResult run_proposal_matching(const Graph& g,
                                     const sim::RunOptions& opts,
                                     ProposalParams params) {
  const auto reps = static_cast<std::uint32_t>(
      std::ceil(std::log2(1.0 / std::min(params.epsilon, 0.5)))) + 2;
  Rng rng(opts.seed);
  std::vector<bool> matched(g.num_nodes(), false);

  ProposalResult out;
  out.metrics.completed = true;
  for (std::uint32_t rep = 0; rep < reps && out.metrics.completed; ++rep) {
    // Random left/right split of the unmatched remainder; keep the
    // bi-chromatic edges (Lemma B.14).
    const Bipartition parts = random_bipartition(g.num_nodes(), rng);
    std::vector<bool> keep(g.num_nodes(), false);
    for (NodeId v = 0; v < g.num_nodes(); ++v) keep[v] = !matched[v];
    const auto sub = induced_subgraph(g, keep);
    std::vector<bool> edge_mask(sub.graph.num_edges(), false);
    Bipartition sub_parts;
    sub_parts.side.resize(sub.graph.num_nodes());
    for (NodeId v = 0; v < sub.graph.num_nodes(); ++v) {
      sub_parts.side[v] = parts.side[sub.original_id[v]];
    }
    for (EdgeId e = 0; e < sub.graph.num_edges(); ++e) {
      const auto [u, v] = sub.graph.endpoints(e);
      edge_mask[e] = sub_parts.side[u] != sub_parts.side[v];
    }
    const auto bi = edge_subgraph(sub.graph, edge_mask);
    if (bi.graph.num_edges() == 0) continue;
    Bipartition bi_parts = sub_parts;  // same node ids as sub.graph
    const auto res = run_proposal_matching_bipartite(
        bi.graph, bi_parts, sim::sub_run(opts, rng.next(), out.metrics),
        params);
    sim::accumulate(out.metrics, res.metrics);
    for (EdgeId be : res.matching) {
      const EdgeId se = bi.original_edge[be];
      const auto [su, sv] = sub.graph.endpoints(se);
      const NodeId u = sub.original_id[su];
      const NodeId v = sub.original_id[sv];
      const EdgeId e = g.find_edge(u, v);
      DISTAPX_ASSERT(e != kInvalidEdge);
      out.matching.push_back(e);
      matched[u] = matched[v] = true;
    }
  }
  DISTAPX_ENSURE(is_matching(g, out.matching));
  return out;
}

}  // namespace distapx
