#include "sim/aggregation.hpp"

#include <algorithm>
#include <numeric>

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

/// Shared engine for both agent topologies.
class AggEngine {
 public:
  enum class Mode { kNodes, kLine, kLineNaive };

  AggEngine(const Graph& g, AggProgram& prog, Mode mode)
      : g_(&g), prog_(&prog), mode_(mode) {
    num_agents_ =
        mode == Mode::kNodes ? g.num_nodes() : g.num_edges();
    if (mode != Mode::kNodes) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (g.degree(v) > 0) line_hubs_.push_back(v);
      }
    }
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
    const std::size_t fields = field_bits_.size();
    states_.assign(static_cast<std::size_t>(num_agents_) * fields, 0);
    halted_.assign(num_agents_, false);
    outputs_.assign(num_agents_, 0);
    rngs_.clear();
    rngs_.reserve(num_agents_);
    const Rng root(opts.seed);
    for (std::uint32_t a = 0; a < num_agents_; ++a) {
      // Distinct tag keeps line-agent streams independent of node streams.
      rngs_.push_back(root.split(
          mode_ == Mode::kNodes ? a : (std::uint64_t{1} << 33) + a));
    }

    AggRunResult result;
    result.metrics.bandwidth_cap = opts.policy.cap_bits(g_->num_nodes());
    if (mode_ != Mode::kLineNaive) {
      check_widths(opts, result.metrics.bandwidth_cap);
    }

    // init sweep (no aggregates yet)
    for (std::uint32_t a = 0; a < num_agents_; ++a) {
      step_agent(a, 0, {}, /*is_init=*/true);
    }
    account_round(result.metrics);

    const std::uint32_t phys_per_super = mode_ == Mode::kLine ? 2 : 1;
    std::uint32_t super = 0;
    while (!all_halted() &&
           result.metrics.rounds + phys_per_super <= opts.max_rounds) {
      ++super;
      compute_aggregates();
      for (std::uint32_t a = 0; a < num_agents_; ++a) {
        if (halted_[a]) continue;
        const std::size_t off = static_cast<std::size_t>(a) * aggs_.size();
        step_agent(a, super,
                   std::span<const std::uint64_t>(agg_buf_.data() + off,
                                                  aggs_.size()),
                   /*is_init=*/false);
      }
      account_round(result.metrics);
      result.metrics.rounds += phys_per_super;
    }
    result.super_rounds = super;
    result.metrics.completed = all_halted();
    result.outputs = std::move(outputs_);
    result.halted.assign(halted_.begin(), halted_.end());
    return result;
  }

 private:
  [[nodiscard]] std::span<std::uint64_t> state_of(std::uint32_t a) {
    const std::size_t fields = field_bits_.size();
    return {states_.data() + static_cast<std::size_t>(a) * fields, fields};
  }

  [[nodiscard]] bool all_halted() const {
    return std::all_of(halted_.begin(), halted_.end(),
                       [](char h) { return h != 0; });
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

  void step_agent(std::uint32_t a, std::uint32_t round,
                  std::span<const std::uint64_t> aggregates, bool is_init) {
    AggCtx ctx(a, round, agent_degree(a), &rngs_[a], aggregates, state_of(a));
    if (is_init) {
      prog_->init(ctx);
    } else {
      prog_->round(ctx);
    }
    validate_state(a);
    if (ctx.halt_requested()) {
      halted_[a] = 1;
      outputs_[a] = ctx.halt_output();
    }
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
    const std::size_t na = aggs_.size();
    // Every slot is written below: each node in node mode, and each edge
    // (via its lower endpoint first) in line mode.
    agg_buf_.resize(static_cast<std::size_t>(num_agents_) * na);
    // Extracted values per (aggregator, agent), reused across folds.
    extracted_.resize(na);
    for (std::size_t k = 0; k < na; ++k) {
      auto& ex = extracted_[k];
      ex.resize(num_agents_);
      for (std::uint32_t a = 0; a < num_agents_; ++a) {
        const std::size_t fields = field_bits_.size();
        ex[a] = aggs_[k].extract(std::span<const std::uint64_t>(
            states_.data() + static_cast<std::size_t>(a) * fields, fields));
      }
    }
    for (std::size_t k = 0; k < na; ++k) {
      switch (aggs_[k].fold) {
        case Fold::kOr: fold_column<Fold::kOr>(k); break;
        case Fold::kAnd: fold_column<Fold::kAnd>(k); break;
        case Fold::kSum: fold_column<Fold::kSum>(k); break;
        case Fold::kMax: fold_column<Fold::kMax>(k); break;
        case Fold::kMin: fold_column<Fold::kMin>(k); break;
      }
    }
  }

  /// Folds aggregator k's extracted column into agg_buf_. Line mode:
  /// aggregate for edge e=(u,v) joins the all-but-e folds of both
  /// endpoints (each computed locally; Thm 2.8). A running prefix and a
  /// suffix fold give all "all-but-one" values in O(deg) per node.
  template <Fold F>
  void fold_column(std::size_t k) {
    const std::size_t na = aggs_.size();
    const auto& ex = extracted_[k];
    if (mode_ == Mode::kNodes) {
      for (NodeId v = 0; v < g_->num_nodes(); ++v) {
        std::uint64_t acc = fold_identity(F);
        for (const HalfEdge& he : g_->neighbors(v)) {
          acc = join<F>(acc, ex[he.to]);
        }
        agg_buf_[static_cast<std::size_t>(v) * na + k] = acc;
      }
      return;
    }
    for (const NodeId v : line_hubs_) {
      const auto inc = g_->neighbors(v);
      const std::size_t d = inc.size();
      if (suffix_.size() < d + 1) suffix_.resize(d + 1);
      suffix_[d] = fold_identity(F);
      for (std::size_t i = d; i-- > 0;) {
        suffix_[i] = join<F>(suffix_[i + 1], ex[inc[i].edge]);
      }
      std::uint64_t prefix = fold_identity(F);
      for (std::size_t i = 0; i < d; ++i) {
        const std::uint64_t partial = join<F>(prefix, suffix_[i + 1]);
        prefix = join<F>(prefix, ex[inc[i].edge]);
        auto& slot = agg_buf_[static_cast<std::size_t>(inc[i].edge) * na + k];
        // Nodes run in id order, so the lower endpoint writes its partial
        // first and the higher one joins.
        slot = inc[i].to > v ? partial : join<F>(slot, partial);
      }
    }
  }

  void account_round(RunMetrics& m) {
    // Uniform widths: per-edge load is the same for every live edge/agent.
    if (mode_ == Mode::kNodes) {
      std::uint64_t live_dir_edges = 0;
      for (NodeId v = 0; v < g_->num_nodes(); ++v) {
        if (!halted_[v]) live_dir_edges += g_->degree(v);
      }
      m.messages += live_dir_edges;
      m.total_bits +=
          live_dir_edges * static_cast<std::uint64_t>(state_total_bits_);
      if (live_dir_edges > 0) {
        m.max_edge_bits = std::max(
            m.max_edge_bits, static_cast<std::uint32_t>(state_total_bits_));
      }
      return;
    }
    if (mode_ == Mode::kLineNaive) {
      // Naive transport: the endpoint u of a physical edge {u,v} forwards
      // the states of all its live incident edges across to v each round.
      live_incident_.assign(g_->num_nodes(), 0);
      for (EdgeId e = 0; e < g_->num_edges(); ++e) {
        if (halted_[e]) continue;
        const auto [u, v] = g_->endpoints(e);
        ++live_incident_[u];
        ++live_incident_[v];
      }
      for (EdgeId e = 0; e < g_->num_edges(); ++e) {
        const auto [u, v] = g_->endpoints(e);
        for (NodeId sender : {u, v}) {
          const std::uint64_t states = live_incident_[sender];
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
    std::uint64_t live_edges = 0;
    for (EdgeId e = 0; e < g_->num_edges(); ++e) {
      if (!halted_[e]) ++live_edges;
    }
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
  std::uint32_t num_agents_ = 0;
  std::vector<int> field_bits_;
  int state_total_bits_ = 0;
  std::vector<Aggregator> aggs_;
  int agg_total_bits_ = 0;

  std::vector<std::uint64_t> states_;
  std::vector<char> halted_;
  std::vector<std::int64_t> outputs_;
  std::vector<Rng> rngs_;
  std::vector<std::uint64_t> agg_buf_;
  std::vector<std::vector<std::uint64_t>> extracted_;
  std::vector<NodeId> line_hubs_;  // line modes: nodes with an incident edge
  std::vector<std::uint64_t> suffix_;
  std::vector<std::uint32_t> live_incident_;  // kLineNaive accounting
};

}  // namespace

AggRunResult run_on_nodes(const Graph& g, AggProgram& prog,
                          const RunOptions& opts) {
  AggEngine engine(g, prog, AggEngine::Mode::kNodes);
  return engine.run(opts);
}

AggRunResult run_on_line_graph(const Graph& base, AggProgram& prog,
                               const RunOptions& opts) {
  AggEngine engine(base, prog, AggEngine::Mode::kLine);
  return engine.run(opts);
}

AggRunResult run_on_line_graph_naive(const Graph& base, AggProgram& prog,
                                     const RunOptions& opts) {
  AggEngine engine(base, prog, AggEngine::Mode::kLineNaive);
  return engine.run(opts);
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
