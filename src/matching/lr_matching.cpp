#include "matching/lr_matching.hpp"

#include <algorithm>

#include "mis/mis.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

enum Status : std::uint64_t {
  kUndecided = 0,
  kCandidate = 1,
  kRemoved = 2,
  kInIs = 3,
};

// State field indices.
constexpr std::size_t kStatus = 0;
constexpr std::size_t kLayer = 1;
constexpr std::size_t kWeight = 2;
constexpr std::size_t kEligible = 3;
constexpr std::size_t kValue = 4;
constexpr std::size_t kTime = 5;
constexpr std::size_t kFreshReduce = 6;

constexpr int kLayerBits = 7;
constexpr int kTimeBits = 20;
constexpr std::uint64_t kInfTime = (std::uint64_t{1} << kTimeBits) - 1;

std::uint64_t layer_of(std::uint64_t weight) {
  DISTAPX_ASSERT(weight > 0);
  return static_cast<std::uint64_t>(ceil_log2(weight));
}

}  // namespace

LayeredMaxIsAggProgram::LayeredMaxIsAggProgram(
    const std::vector<Weight>& weights, Weight max_weight,
    std::uint32_t num_agents)
    : weights_(&weights),
      weight_bits_(bits_for_value(
          static_cast<std::uint64_t>(std::max<Weight>(max_weight, 1)))),
      id_bits_(bits_for_count(std::max<std::uint32_t>(num_agents, 2))) {
  value_bits_ = std::min(2 * id_bits_ + id_bits_ + 1, 62);
}

std::vector<int> LayeredMaxIsAggProgram::state_bits() const {
  return {2, kLayerBits, weight_bits_, 1, value_bits_, kTimeBits,
          weight_bits_};
}

std::vector<sim::Aggregator> LayeredMaxIsAggProgram::aggregators() const {
  std::vector<sim::Aggregator> aggs;
  // 0: max weight layer among undecided neighbors.
  aggs.push_back(sim::agg_max(
      [](std::span<const std::uint64_t> s) {
        return s[kStatus] == kUndecided ? s[kLayer] : std::uint64_t{0};
      },
      kLayerBits));
  // 1: max selection value among eligible undecided neighbors.
  aggs.push_back(sim::agg_max(
      [](std::span<const std::uint64_t> s) {
        return s[kStatus] == kUndecided && s[kEligible] != 0
                   ? s[kValue]
                   : std::uint64_t{0};
      },
      value_bits_));
  // 2: sum of fresh reduction amounts (new candidates only).
  aggs.push_back(sim::agg_sum(
      [](std::span<const std::uint64_t> s) { return s[kFreshReduce]; },
      weight_bits_ + 12));
  // 3: any neighbor in the IS.
  aggs.push_back(sim::agg_or([](std::span<const std::uint64_t> s) {
    return static_cast<std::uint64_t>(s[kStatus] == kInIs);
  }));
  // 4: max candidacy time among still-active neighbors (undecided = inf).
  aggs.push_back(sim::agg_max(
      [](std::span<const std::uint64_t> s) {
        if (s[kStatus] == kUndecided) return kInfTime;
        if (s[kStatus] == kCandidate) return s[kTime];
        return std::uint64_t{0};
      },
      kTimeBits));
  return aggs;
}

void LayeredMaxIsAggProgram::init(sim::AggCtx& ctx) {
  auto st = ctx.state();
  const Weight w = (*weights_)[ctx.agent()];
  st[kTime] = kInfTime;
  if (w <= 0) {
    st[kStatus] = kRemoved;
    ctx.halt(kOutNotInIs);
    return;
  }
  st[kStatus] = kUndecided;
  st[kWeight] = static_cast<std::uint64_t>(w);
  st[kLayer] = layer_of(st[kWeight]);
}

void LayeredMaxIsAggProgram::round(sim::AggCtx& ctx) {
  auto st = ctx.state();
  const auto aggs = ctx.aggregates();
  const bool nbr_in_is = aggs[3] != 0;
  const std::uint64_t iter = (ctx.round() - 1) / 3 + 1;
  const std::uint32_t phase = (ctx.round() - 1) % 3;

  if (nbr_in_is) {
    DISTAPX_ENSURE_MSG(st[kStatus] == kCandidate,
                       "non-candidate agent " << ctx.agent()
                                              << " saw an IS neighbor");
    st[kStatus] = kRemoved;
    ctx.halt(kOutNotInIs);
    return;
  }
  if (st[kStatus] == kCandidate) {
    if (phase == 2) st[kFreshReduce] = 0;
    if (aggs[4] < st[kTime]) {
      // Every line-neighbor is removed or candidated earlier: join.
      st[kStatus] = kInIs;
      ctx.halt(kOutInIs);
    }
    return;
  }
  DISTAPX_ASSERT(st[kStatus] == kUndecided);
  switch (phase) {
    case 0: {  // A: eligibility
      st[kEligible] =
          static_cast<std::uint64_t>(aggs[0] <= st[kLayer]);
      if (st[kEligible] != 0) {
        const int rand_bits = value_bits_ - id_bits_ - 1;
        const std::uint64_t rand =
            ctx.rng().next() & ((std::uint64_t{1} << rand_bits) - 1);
        st[kValue] = ((rand << id_bits_) | ctx.agent()) + 1;
      } else {
        st[kValue] = 0;
      }
      break;
    }
    case 1: {  // B: selection
      if (st[kEligible] != 0 && aggs[1] < st[kValue]) {
        st[kStatus] = kCandidate;
        st[kTime] = iter;
        st[kFreshReduce] = st[kWeight];
        st[kWeight] = 0;
        st[kLayer] = 0;
      }
      st[kEligible] = 0;
      break;
    }
    case 2: {  // C: apply reductions
      const std::uint64_t reduce = aggs[2];
      if (reduce >= st[kWeight]) {
        st[kStatus] = kRemoved;
        ctx.halt(kOutNotInIs);
        return;
      }
      st[kWeight] -= reduce;
      st[kLayer] = layer_of(st[kWeight]);
      break;
    }
    default:
      break;
  }
}

MaxIsResult run_layered_maxis_agg(const Graph& g, const NodeWeights& w,
                                  const sim::RunOptions& opts) {
  const Weight max_w =
      w.empty() ? 1 : *std::max_element(w.begin(), w.end());
  LayeredMaxIsAggProgram prog(w, max_w, g.num_nodes());
  const auto run = sim::run_on_nodes(g, prog, opts);
  MaxIsResult out;
  out.metrics = run.metrics;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (run.outputs[v] == kOutInIs) out.independent_set.push_back(v);
  }
  return out;
}

MatchingResult run_lr_matching(const Graph& g, const EdgeWeights& w,
                               const sim::RunOptions& opts) {
  DISTAPX_ENSURE(w.size() == g.num_edges());
  const Weight max_w =
      w.empty() ? 1 : *std::max_element(w.begin(), w.end());
  LayeredMaxIsAggProgram prog(w, max_w, g.num_edges());
  const auto run = sim::run_on_line_graph(g, prog, opts);
  MatchingResult out;
  out.metrics = run.metrics;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (run.outputs[e] == kOutInIs) out.matching.push_back(e);
  }
  return out;
}

}  // namespace distapx
