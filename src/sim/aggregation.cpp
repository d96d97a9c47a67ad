#include "sim/aggregation.hpp"

#include <algorithm>
#include <numeric>

#include "sim/workspace.hpp"
#include "support/assert.hpp"

namespace distapx::sim {

Aggregator agg_or(
    std::function<std::uint64_t(std::span<const std::uint64_t>)> extract) {
  return {std::move(extract), Fold::kOr, 1};
}

Aggregator agg_and(
    std::function<std::uint64_t(std::span<const std::uint64_t>)> extract) {
  return {std::move(extract), Fold::kAnd, 1};
}

Aggregator agg_sum(
    std::function<std::uint64_t(std::span<const std::uint64_t>)> extract,
    int result_bits) {
  return {std::move(extract), Fold::kSum, result_bits};
}

Aggregator agg_max(
    std::function<std::uint64_t(std::span<const std::uint64_t>)> extract,
    int result_bits) {
  return {std::move(extract), Fold::kMax, result_bits};
}

Aggregator agg_min(
    std::function<std::uint64_t(std::span<const std::uint64_t>)> extract,
    int result_bits) {
  return {std::move(extract), Fold::kMin, result_bits};
}

namespace {

template <Fold F>
std::uint64_t join(std::uint64_t x, std::uint64_t y) {
  if constexpr (F == Fold::kOr) {
    return static_cast<std::uint64_t>(x != 0 || y != 0);
  } else if constexpr (F == Fold::kAnd) {
    return static_cast<std::uint64_t>(x != 0 && y != 0);
  } else if constexpr (F == Fold::kSum) {
    // Saturating add keeps congested sums well-defined.
    const std::uint64_t s = x + y;
    return s < x ? ~std::uint64_t{0} : s;
  } else if constexpr (F == Fold::kMax) {
    return std::max(x, y);
  } else {
    return std::min(x, y);
  }
}

/// Shared engine for both agent topologies. Per super-round it touches
/// live work only: the live agents step (in ascending id), each agent's
/// extracted values are refreshed right after it steps (a halted agent's
/// frozen values keep feeding its neighbours' folds), folds run for live
/// agents only, and live counts replace the per-round halted scans.
class AggEngine {
 public:
  enum class Mode { kNodes, kLine, kLineNaive };

  AggEngine(const Graph& g, AggProgram& prog, Mode mode, AggScratch& scratch)
      : g_(&g), prog_(&prog), mode_(mode), s_(&scratch) {
    num_agents_ =
        mode == Mode::kNodes ? g.num_nodes() : g.num_edges();
    field_bits_ = prog.state_bits();
    DISTAPX_ENSURE(!field_bits_.empty());
    state_total_bits_ = 0;
    for (int b : field_bits_) {
      DISTAPX_ENSURE(b >= 1 && b <= 64);
      state_total_bits_ += b;
    }
    aggs_ = prog.aggregators();
    agg_total_bits_ = 0;
    for (const auto& a : aggs_) {
      DISTAPX_ENSURE(a.extract);
      agg_total_bits_ += a.result_bits;
    }
  }

  AggRunResult run(const RunOptions& opts) {
    AggScratch& s = *s_;
    const std::size_t fields = field_bits_.size();
    const std::size_t na = aggs_.size();
    s.states.assign(static_cast<std::size_t>(num_agents_) * fields, 0);
    s.halted.assign(num_agents_, 0);
    s.rngs.clear();
    s.rngs.reserve(num_agents_);
    const Rng root(opts.seed);
    for (std::uint32_t a = 0; a < num_agents_; ++a) {
      // Distinct tag keeps line-agent streams independent of node streams.
      s.rngs.push_back(root.split(
          mode_ == Mode::kNodes ? a : (std::uint64_t{1} << 33) + a));
    }
    // Every slot a fold reads is written by the agent's own step first.
    s.extracted.resize(na * num_agents_);
    s.aggregates.resize(static_cast<std::size_t>(num_agents_) * na);
    s.live.resize(num_agents_);
    std::iota(s.live.begin(), s.live.end(), 0u);
    live_dir_edges_ = 0;
    if (mode_ == Mode::kNodes) {
      live_dir_edges_ = 2ull * g_->num_edges();
    } else {
      s.live_incident.resize(g_->num_nodes());
      s.hubs.clear();
      for (NodeId v = 0; v < g_->num_nodes(); ++v) {
        s.live_incident[v] = g_->degree(v);
        if (g_->degree(v) > 0) s.hubs.push_back(v);
      }
    }

    AggRunResult result;
    result.outputs.assign(num_agents_, 0);
    result.metrics.bandwidth_cap = opts.cap_bits(g_->num_nodes());
    if (mode_ != Mode::kLineNaive) {
      check_widths(opts, result.metrics.bandwidth_cap);
    }

    // init sweep (no aggregates yet)
    sweep(0, /*is_init=*/true, result.outputs);
    account_and_observe(opts, result.metrics);

    const std::uint32_t phys_per_super = mode_ == Mode::kLine ? 2 : 1;
    std::uint32_t super = 0;
    while (!s.live.empty() &&
           result.metrics.rounds + phys_per_super <= opts.max_rounds) {
      ++super;
      compute_aggregates();
      sweep(super, /*is_init=*/false, result.outputs);
      result.metrics.rounds += phys_per_super;
      account_and_observe(opts, result.metrics);
    }
    result.super_rounds = super;
    result.metrics.completed = s.live.empty();
    result.halted.assign(s.halted.begin(), s.halted.end());
    return result;
  }

 private:
  [[nodiscard]] std::span<std::uint64_t> state_of(std::uint32_t a) {
    const std::size_t fields = field_bits_.size();
    return {s_->states.data() + static_cast<std::size_t>(a) * fields, fields};
  }

  void check_widths(const RunOptions& opts, std::uint32_t cap) const {
    if (!opts.policy.bounded || !opts.policy.enforce) return;
    // Node mode sends the state on each edge; line mode sends the partial
    // aggregates (phase A) and the state refresh (phase B) on each edge.
    const int load = mode_ == Mode::kNodes
                         ? state_total_bits_
                         : std::max(state_total_bits_, agg_total_bits_);
    DISTAPX_ENSURE_MSG(static_cast<std::uint32_t>(load) <= cap,
                       "aggregation program needs "
                           << load << " bits/edge/round, CONGEST cap is "
                           << cap);
  }

  /// Steps every live agent once, in ascending id, and drops the ones
  /// that halted from the live list.
  void sweep(std::uint32_t round, bool is_init,
             std::vector<std::int64_t>& outputs) {
    AggScratch& s = *s_;
    const std::size_t na = aggs_.size();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < s.live.size(); ++i) {
      const std::uint32_t a = s.live[i];
      AggCtx ctx(a, round, agent_degree(a), &s.rngs[a],
                 is_init ? std::span<const std::uint64_t>{}
                         : std::span<const std::uint64_t>(
                               s.aggregates.data() +
                                   static_cast<std::size_t>(a) * na,
                               na),
                 state_of(a));
      if (is_init) {
        prog_->init(ctx);
      } else {
        prog_->round(ctx);
      }
      validate_state(a);
      const std::span<const std::uint64_t> st = state_of(a);
      for (std::size_t k = 0; k < na; ++k) {
        s.extracted[k * num_agents_ + a] = aggs_[k].extract(st);
      }
      if (!ctx.halt_requested()) {
        s.live[kept++] = a;
        continue;
      }
      s.halted[a] = 1;
      outputs[a] = ctx.halt_output();
      if (mode_ == Mode::kNodes) {
        live_dir_edges_ -= g_->degree(a);
      } else {
        const auto [u, v] = g_->endpoints(a);
        --s.live_incident[u];
        --s.live_incident[v];
      }
    }
    s.live.resize(kept);
  }

  void validate_state(std::uint32_t a) {
    const auto st = state_of(a);
    for (std::size_t f = 0; f < field_bits_.size(); ++f) {
      const int b = field_bits_[f];
      if (b == 64) continue;
      DISTAPX_ENSURE_MSG(st[f] < (std::uint64_t{1} << b),
                         "agent " << a << " state field " << f << " value "
                                  << st[f] << " exceeds declared width " << b);
    }
  }

  [[nodiscard]] std::uint32_t agent_degree(std::uint32_t a) const {
    if (mode_ == Mode::kNodes) return g_->degree(a);
    const auto [u, v] = g_->endpoints(a);
    return g_->degree(u) + g_->degree(v) - 2;
  }

  void compute_aggregates() {
    if (mode_ != Mode::kNodes) {
      // Hubs whose incident edges have all halted fold for no one.
      AggScratch& s = *s_;
      std::erase_if(s.hubs,
                    [&](NodeId v) { return s.live_incident[v] == 0; });
    }
    for (std::size_t k = 0; k < aggs_.size(); ++k) {
      switch (aggs_[k].fold) {
        case Fold::kOr: fold_column<Fold::kOr>(k); break;
        case Fold::kAnd: fold_column<Fold::kAnd>(k); break;
        case Fold::kSum: fold_column<Fold::kSum>(k); break;
        case Fold::kMax: fold_column<Fold::kMax>(k); break;
        case Fold::kMin: fold_column<Fold::kMin>(k); break;
      }
    }
  }

  /// Folds aggregator k's extracted column into the live agents'
  /// aggregates. Line mode: the aggregate for edge e=(u,v) joins the
  /// all-but-e folds of both endpoints (each computed locally; Thm 2.8). A
  /// running prefix and a suffix fold give all "all-but-one" values in
  /// O(deg) per hub.
  template <Fold F>
  void fold_column(std::size_t k) {
    AggScratch& s = *s_;
    const std::size_t na = aggs_.size();
    const std::uint64_t* ex = s.extracted.data() + k * num_agents_;
    std::uint64_t* agg = s.aggregates.data();
    if (mode_ == Mode::kNodes) {
      for (const NodeId v : s.live) {
        std::uint64_t acc = fold_identity(F);
        for (const HalfEdge& he : g_->neighbors(v)) {
          acc = join<F>(acc, ex[he.to]);
        }
        agg[static_cast<std::size_t>(v) * na + k] = acc;
      }
      return;
    }
    for (const NodeId v : s.hubs) {
      const auto inc = g_->neighbors(v);
      const std::size_t d = inc.size();
      if (s.suffix.size() < d + 1) s.suffix.resize(d + 1);
      s.suffix[d] = fold_identity(F);
      for (std::size_t i = d; i-- > 0;) {
        s.suffix[i] = join<F>(s.suffix[i + 1], ex[inc[i].edge]);
      }
      std::uint64_t prefix = fold_identity(F);
      for (std::size_t i = 0; i < d; ++i) {
        const std::uint64_t partial = join<F>(prefix, s.suffix[i + 1]);
        prefix = join<F>(prefix, ex[inc[i].edge]);
        if (s.halted[inc[i].edge]) continue;
        auto& slot = agg[static_cast<std::size_t>(inc[i].edge) * na + k];
        // Hubs run in id order and both endpoints of a live edge are hubs,
        // so the lower endpoint writes its partial first and the higher
        // one joins.
        slot = inc[i].to > v ? partial : join<F>(slot, partial);
      }
    }
  }

  /// Charges the physical rounds of the sweep that just ran and reports
  /// them to the observer, if any.
  void account_and_observe(const RunOptions& opts, RunMetrics& m) {
    const std::uint64_t messages = m.messages;
    const std::uint64_t bits = m.total_bits;
    account_round(m);
    if (!opts.observer) return;
    RoundSample sample;
    sample.round = m.rounds;
    sample.messages = m.messages - messages;
    sample.bits = m.total_bits - bits;
    sample.nodes_halted =
        num_agents_ - static_cast<std::uint32_t>(s_->live.size());
    opts.observer(sample);
  }

  void account_round(RunMetrics& m) {
    // Uniform widths: per-edge load is the same for every live edge/agent.
    if (mode_ == Mode::kNodes) {
      m.messages += live_dir_edges_;
      m.total_bits +=
          live_dir_edges_ * static_cast<std::uint64_t>(state_total_bits_);
      if (live_dir_edges_ > 0) {
        m.max_edge_bits = std::max(
            m.max_edge_bits, static_cast<std::uint32_t>(state_total_bits_));
      }
      return;
    }
    if (mode_ == Mode::kLineNaive) {
      // Naive transport: the endpoint u of a physical edge {u,v} forwards
      // the states of all its live incident edges across to v each round.
      for (EdgeId e = 0; e < g_->num_edges(); ++e) {
        const auto [u, v] = g_->endpoints(e);
        for (NodeId sender : {u, v}) {
          const std::uint64_t states = s_->live_incident[sender];
          if (states == 0) continue;
          const std::uint64_t bits =
              states * static_cast<std::uint64_t>(state_total_bits_);
          m.messages += states;
          m.total_bits += bits;
          m.max_edge_bits = std::max(
              m.max_edge_bits, static_cast<std::uint32_t>(std::min<
                                   std::uint64_t>(bits, UINT32_MAX)));
        }
      }
      return;
    }
    const std::uint64_t live_edges = s_->live.size();
    // Phase A: both endpoints exchange partial aggregates over the edge.
    // Phase B: primary sends the refreshed state back.
    m.messages += 3 * live_edges;
    m.total_bits += live_edges * (2ull * agg_total_bits_ + state_total_bits_);
    if (live_edges > 0) {
      m.max_edge_bits =
          std::max(m.max_edge_bits,
                   static_cast<std::uint32_t>(
                       std::max(agg_total_bits_, state_total_bits_)));
    }
  }

  const Graph* g_;
  AggProgram* prog_;
  Mode mode_;
  AggScratch* s_;
  std::uint32_t num_agents_ = 0;
  std::vector<int> field_bits_;
  int state_total_bits_ = 0;
  std::vector<Aggregator> aggs_;
  int agg_total_bits_ = 0;
  std::uint64_t live_dir_edges_ = 0;  ///< node mode: sum of live degrees
};

AggRunResult run_engine(const Graph& g, AggProgram& prog, AggEngine::Mode mode,
                        const RunOptions& opts) {
  if (opts.workspace != nullptr) {
    return AggEngine(g, prog, mode, opts.workspace->agg()).run(opts);
  }
  Workspace local;
  return AggEngine(g, prog, mode, local.agg()).run(opts);
}

}  // namespace

AggRunResult run_on_nodes(const Graph& g, AggProgram& prog,
                          const RunOptions& opts) {
  return run_engine(g, prog, AggEngine::Mode::kNodes, opts);
}

AggRunResult run_on_line_graph(const Graph& base, AggProgram& prog,
                               const RunOptions& opts) {
  return run_engine(base, prog, AggEngine::Mode::kLine, opts);
}

AggRunResult run_on_line_graph_naive(const Graph& base, AggProgram& prog,
                                     const RunOptions& opts) {
  return run_engine(base, prog, AggEngine::Mode::kLineNaive, opts);
}

std::uint32_t naive_line_congestion_bits(const Graph& base, int state_bits) {
  // Naive simulation: for edge e={u,v} simulated at u, the states of all
  // line-neighbors incident only to v must cross the physical edge (v->u):
  // (deg(v) - 1) states per round.
  std::uint32_t worst = 0;
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const auto [u, v] = base.endpoints(e);
    const std::uint32_t load =
        (std::max(base.degree(u), base.degree(v)) - 1) *
        static_cast<std::uint32_t>(state_bits);
    worst = std::max(worst, load);
  }
  return worst;
}

}  // namespace distapx::sim
