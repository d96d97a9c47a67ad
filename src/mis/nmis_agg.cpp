#include "mis/nmis_agg.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

constexpr std::uint64_t kFx = std::uint64_t{1} << 30;

enum Status : std::uint64_t {
  kActive = 0,
  kJoined = 1,
  kRemoved = 2,
  kUndecided = 3,
};

// State field indices.
constexpr std::size_t kStatus = 0;
constexpr std::size_t kExponent = 1;
constexpr std::size_t kMarked = 2;
constexpr std::size_t kIteration = 3;  // local counter, not transmitted info
                                       // but kept in state for simplicity

std::uint64_t prob_fx(std::uint32_t K, std::uint64_t j) {
  std::uint64_t denom = 1;
  for (std::uint64_t i = 0; i < j; ++i) {
    if (denom > kFx) return 0;
    denom *= K;
  }
  return kFx / denom;
}

}  // namespace

NmisAggProgram::NmisAggProgram(std::uint32_t max_degree, NmisParams params)
    : params_(params),
      iterations_(nmis_iteration_budget(max_degree, params)),
      exp_bits_(std::max(
          4, bits_for_value(static_cast<std::uint64_t>(iterations_) + 1))),
      mark_prob_(nmis_mark_probabilities(params.K, exp_bits_)) {}

std::vector<int> NmisAggProgram::state_bits() const {
  return {2, exp_bits_, 1, std::max(4, bits_for_value(iterations_ + 1))};
}

std::vector<sim::Aggregator> NmisAggProgram::aggregators() const {
  const std::uint32_t K = params_.K;
  std::vector<sim::Aggregator> aggs;
  aggs.push_back(sim::agg_or([](std::span<const std::uint64_t> s) {
    return static_cast<std::uint64_t>(s[kStatus] == kJoined);
  }));
  aggs.push_back(sim::agg_or([](std::span<const std::uint64_t> s) {
    return static_cast<std::uint64_t>(s[kStatus] == kActive &&
                                      s[kMarked] != 0);
  }));
  aggs.push_back(sim::agg_sum(
      [K](std::span<const std::uint64_t> s) {
        return s[kStatus] == kActive ? prob_fx(K, s[kExponent])
                                     : std::uint64_t{0};
      },
      /*result_bits=*/50));
  return aggs;
}

void NmisAggProgram::init(sim::AggCtx& ctx) {
  auto st = ctx.state();
  st[kStatus] = kActive;
  st[kExponent] = 1;
  st[kIteration] = 0;
  if (ctx.degree() == 0) {
    st[kStatus] = kJoined;
    ctx.halt(kOutInIs);
    return;
  }
  st[kMarked] =
      static_cast<std::uint64_t>(ctx.rng().bernoulli(mark_prob_[1]));
}

void NmisAggProgram::round(sim::AggCtx& ctx) {
  auto st = ctx.state();
  const auto aggs = ctx.aggregates();
  const bool nbr_joined = aggs[0] != 0;
  const bool nbr_marked = aggs[1] != 0;
  const std::uint64_t d_fx = aggs[2];

  if (nbr_joined) {
    st[kStatus] = kRemoved;
    ctx.halt(kOutNotInIs);
    return;
  }
  if (st[kMarked] != 0 && !nbr_marked) {
    st[kStatus] = kJoined;
    ctx.halt(kOutInIs);
    return;
  }
  if (st[kIteration] + 1 >= iterations_) {
    st[kStatus] = kUndecided;
    ctx.halt(kOutUndecided);
    return;
  }
  ++st[kIteration];
  if (d_fx >= 2 * kFx) {
    st[kExponent] = std::min<std::uint64_t>(
        st[kExponent] + 1, (std::uint64_t{1} << exp_bits_) - 1);
  } else if (st[kExponent] > 1) {
    --st[kExponent];
  }
  st[kMarked] = static_cast<std::uint64_t>(
      ctx.rng().bernoulli(mark_prob_[st[kExponent]]));
}

IsResult run_nmis_agg_on_nodes(const Graph& g, const sim::RunOptions& opts,
                               NmisParams params) {
  NmisAggProgram prog(g.max_degree(), params);
  const auto result = sim::run_on_nodes(g, prog, opts);
  return collect_is(result.outputs, result.metrics);
}

NmMatchingResult run_nearly_maximal_matching(const Graph& g,
                                             const sim::RunOptions& opts,
                                             NmisParams params) {
  // Line-graph max degree: an edge {u,v} has deg(u)+deg(v)-2 line-neighbors.
  std::uint32_t line_delta = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    line_delta = std::max(line_delta, g.degree(u) + g.degree(v) - 2);
  }
  NmisAggProgram prog(std::max<std::uint32_t>(line_delta, 1), params);
  const auto result = sim::run_on_line_graph(g, prog, opts);
  NmMatchingResult out;
  out.metrics = result.metrics;
  out.super_rounds = result.super_rounds;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (result.outputs[e] == kOutInIs) {
      out.matching.push_back(e);
    } else if (result.outputs[e] == kOutUndecided) {
      out.undecided.push_back(e);
    }
  }
  return out;
}

}  // namespace distapx
