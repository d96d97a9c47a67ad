#include "matching/weighted_2eps.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "graph/algos.hpp"
#include "matching/nmm_2eps.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace distapx {
namespace {

struct BucketKey {
  std::int32_t big = 0;
  std::int32_t small = 0;
};

/// Stage-1 engine shared by the public entry points.
class BucketedMwm {
 public:
  BucketedMwm(const Graph& g, const Weighted2EpsParams& params,
              const sim::RunOptions& opts)
      : g_(&g),
        params_(params),
        opts_(sim::within(opts, g)),
        new_id_(g.num_nodes()) {}

  /// Runs the [LPSR09] bucketing on weights `w`; returns a matching that is
  /// an O(1)-approximation of MWM w.r.t. `w`. Ignores edges with w <= 0.
  std::vector<EdgeId> run(const EdgeWeights& w, std::uint64_t seed,
                          sim::RunMetrics& metrics,
                          std::uint32_t& rounds_parallel) {
    const double beta = params_.beta;
    const double eps = params_.epsilon;
    const auto small_per_big = static_cast<std::int32_t>(
        std::ceil(std::log(beta) / std::log1p(eps)));

    // Partition edges into (big, small) buckets.
    std::map<std::int32_t, std::vector<std::vector<EdgeId>>> big_buckets;
    for (EdgeId e = 0; e < g_->num_edges(); ++e) {
      if (w[e] <= 0) continue;
      const double lw = std::log(static_cast<double>(w[e]));
      const auto big = static_cast<std::int32_t>(
          std::floor(lw / std::log(beta) + 1e-12));
      auto small = static_cast<std::int32_t>(std::floor(
          (lw - big * std::log(beta)) / std::log1p(eps) + 1e-12));
      small = std::clamp<std::int32_t>(small, 0, small_per_big - 1);
      auto& bucket = big_buckets[big];
      if (bucket.empty()) bucket.resize(small_per_big);
      bucket[static_cast<std::size_t>(small)].push_back(e);
    }

    std::vector<bool> node_taken(g_->num_nodes(), false);
    std::vector<std::vector<EdgeId>> per_big_chosen;
    Rng seeder(seed);

    // Small-bucket sweeps, highest first. Big buckets are parallel: the
    // round cost of sweep j is the max over big buckets.
    std::vector<std::vector<bool>> big_node_taken;
    std::vector<const std::vector<std::vector<EdgeId>>*> big_list;
    for (const auto& [big, buckets] : big_buckets) {
      big_list.push_back(&buckets);
      big_node_taken.emplace_back(g_->num_nodes(), false);
      per_big_chosen.emplace_back();
    }
    for (std::int32_t j = small_per_big - 1; j >= 0 && metrics.completed;
         --j) {
      std::uint32_t sweep_rounds = 0;
      for (std::size_t b = 0; b < big_list.size() && metrics.completed;
           ++b) {
        const auto& edges = (*big_list[b])[static_cast<std::size_t>(j)];
        if (edges.empty()) continue;
        // Surviving edges of this small bucket: endpoints untouched within
        // this big bucket.
        survivors_.clear();
        for (EdgeId e : edges) {
          const auto [u, v] = g_->endpoints(e);
          if (!big_node_taken[b][u] && !big_node_taken[b][v]) {
            survivors_.push_back(e);
          }
        }
        if (survivors_.empty()) continue;
        const Graph sub = compact_subgraph();
        Nmm2EpsParams nmm;
        nmm.epsilon = params_.epsilon;
        const auto found = run_nmm_2eps_matching(
            sub, sim::sub_run(opts_, seeder.next(), metrics), nmm);
        sim::accumulate(metrics, found.metrics);
        sweep_rounds = std::max(sweep_rounds, found.metrics.rounds);
        for (EdgeId se : found.matching) {
          const EdgeId e = survivors_[se];
          per_big_chosen[b].push_back(e);
          const auto [u, v] = g_->endpoints(e);
          big_node_taken[b][u] = true;
          big_node_taken[b][v] = true;
        }
      }
      rounds_parallel += sweep_rounds;
    }

    // Cross-bucket prune: keep a chosen edge only if it is the strict
    // (weight, id) maximum among chosen edges sharing either endpoint.
    std::vector<std::vector<EdgeId>> chosen_at(g_->num_nodes());
    for (const auto& chosen : per_big_chosen) {
      for (EdgeId e : chosen) {
        const auto [u, v] = g_->endpoints(e);
        chosen_at[u].push_back(e);
        chosen_at[v].push_back(e);
      }
    }
    auto heavier = [&](EdgeId a, EdgeId b) {
      return w[a] != w[b] ? w[a] > w[b] : a > b;
    };
    std::vector<EdgeId> result;
    for (const auto& chosen : per_big_chosen) {
      for (EdgeId e : chosen) {
        const auto [u, v] = g_->endpoints(e);
        bool is_max = true;
        for (EdgeId f : chosen_at[u]) {
          if (f != e && !heavier(e, f)) is_max = false;
        }
        for (EdgeId f : chosen_at[v]) {
          if (f != e && !heavier(e, f)) is_max = false;
        }
        if (is_max) result.push_back(e);
      }
    }
    rounds_parallel += 1;  // the local prune exchange
    return result;
  }

 private:
  /// The bucket graph of survivors_: only their endpoints, relabelled in
  /// ascending order, and edge i = survivors_[i]. A monotone relabelling
  /// keeps every adjacency order, line-hub order and per-edge RNG stream
  /// of the full-n edge subgraph, so the NMM run is the same; opts_ keeps
  /// the cap at the job graph's n.
  Graph compact_subgraph() {
    nodes_.clear();
    for (EdgeId e : survivors_) {
      const auto [u, v] = g_->endpoints(e);
      nodes_.push_back(u);
      nodes_.push_back(v);
    }
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
    for (NodeId i = 0; i < nodes_.size(); ++i) new_id_[nodes_[i]] = i;
    GraphBuilder b(static_cast<NodeId>(nodes_.size()));
    for (EdgeId e : survivors_) {
      const auto [u, v] = g_->endpoints(e);
      b.add_edge(new_id_[u], new_id_[v]);
    }
    return b.build();
  }

  const Graph* g_;
  Weighted2EpsParams params_;
  sim::RunOptions opts_;
  // Per-run scratch of the bucket sweeps.
  std::vector<EdgeId> survivors_;  ///< current bucket, ascending EdgeId
  std::vector<NodeId> nodes_;      ///< their endpoints, ascending
  std::vector<NodeId> new_id_;     ///< job node -> bucket node
};

}  // namespace

Weighted2EpsResult run_bucketed_o1_mwm(const Graph& g, const EdgeWeights& w,
                                       const sim::RunOptions& opts,
                                       const Weighted2EpsParams& params) {
  DISTAPX_ENSURE(w.size() == g.num_edges());
  Weighted2EpsResult out;
  out.metrics.completed = true;
  BucketedMwm engine(g, params, opts);
  out.matching = engine.run(w, opts.seed, out.metrics, out.rounds_parallel);
  DISTAPX_ENSURE(is_matching(g, out.matching));
  return out;
}

Weighted2EpsResult run_weighted_2eps_matching(
    const Graph& g, const EdgeWeights& w, const sim::RunOptions& opts,
    const Weighted2EpsParams& params) {
  DISTAPX_ENSURE(w.size() == g.num_edges());
  Weighted2EpsResult out;
  out.metrics.completed = true;
  BucketedMwm engine(g, params, opts);
  Rng seeder(hash_combine(opts.seed, 0x2eb5));

  // Stage 1 uses `opts.seed` directly so it matches a standalone
  // run_bucketed_o1_mwm call, and every refinement iteration can only add
  // positive auxiliary gain — the full run dominates stage 1.
  std::vector<EdgeId> m = engine.run(w, opts.seed, out.metrics,
                                     out.rounds_parallel);

  const std::uint32_t iters =
      params.refine_iterations != 0
          ? params.refine_iterations
          : static_cast<std::uint32_t>(std::ceil(2.0 / params.epsilon)) + 2;

  std::vector<EdgeId> matched_at(g.num_nodes(), kInvalidEdge);
  for (std::uint32_t it = 0; it < iters && out.metrics.completed; ++it) {
    std::fill(matched_at.begin(), matched_at.end(), kInvalidEdge);
    for (EdgeId e : m) {
      const auto [u, v] = g.endpoints(e);
      matched_at[u] = e;
      matched_at[v] = e;
    }
    // Auxiliary gains ([LPSP15] §4): adding e evicts the matched edges at
    // its endpoints; gain = w(e) minus their weight (length-<=3 augmenting
    // paths). Computable in O(1) rounds.
    EdgeWeights gain(g.num_edges(), 0);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      if (matched_at[u] == e) continue;  // already matched
      Weight loss = 0;
      if (matched_at[u] != kInvalidEdge) loss += w[matched_at[u]];
      if (matched_at[v] != kInvalidEdge) loss += w[matched_at[v]];
      gain[e] = w[e] - loss;
    }
    const std::vector<EdgeId> aug =
        engine.run(gain, seeder.next(), out.metrics, out.rounds_parallel);
    if (aug.empty()) break;
    // Augment: keep old matched edges not adjacent to the found set.
    std::vector<bool> touched(g.num_nodes(), false);
    for (EdgeId e : aug) {
      const auto [u, v] = g.endpoints(e);
      touched[u] = touched[v] = true;
    }
    std::vector<EdgeId> next(aug);
    for (EdgeId e : m) {
      const auto [u, v] = g.endpoints(e);
      if (!touched[u] && !touched[v]) next.push_back(e);
    }
    m = std::move(next);
    out.rounds_parallel += 1;
    DISTAPX_ENSURE(is_matching(g, m));
  }
  out.matching = std::move(m);
  return out;
}

}  // namespace distapx
