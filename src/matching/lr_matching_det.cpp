#include "matching/lr_matching_det.hpp"

#include <algorithm>

#include "coloring/linial.hpp"
#include "graph/line_graph.hpp"
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

constexpr std::size_t kStatus = 0;
constexpr std::size_t kColor = 1;
constexpr std::size_t kWeight = 2;
constexpr std::size_t kTime = 3;
constexpr std::size_t kFreshReduce = 4;

constexpr int kTimeBits = 20;
constexpr std::uint64_t kInfTime = (std::uint64_t{1} << kTimeBits) - 1;

}  // namespace

ColoringMaxIsAggProgram::ColoringMaxIsAggProgram(
    const std::vector<Weight>& weights, const std::vector<Color>& colors,
    Weight max_weight, Color num_colors)
    : weights_(&weights),
      colors_(&colors),
      weight_bits_(bits_for_value(
          static_cast<std::uint64_t>(std::max<Weight>(max_weight, 1)))),
      color_bits_(bits_for_count(std::max<Color>(num_colors, 2))) {}

std::vector<int> ColoringMaxIsAggProgram::state_bits() const {
  return {2, color_bits_, weight_bits_, kTimeBits, weight_bits_};
}

std::vector<sim::Aggregator> ColoringMaxIsAggProgram::aggregators() const {
  std::vector<sim::Aggregator> aggs;
  // 0: max color among undecided neighbors (eligibility test).
  aggs.push_back(sim::agg_max(
      [](std::span<const std::uint64_t> s) {
        return s[kStatus] == kUndecided ? s[kColor] + 1 : std::uint64_t{0};
      },
      color_bits_ + 1));
  // 1: sum of fresh reduction amounts.
  aggs.push_back(sim::agg_sum(
      [](std::span<const std::uint64_t> s) { return s[kFreshReduce]; },
      weight_bits_ + 12));
  // 2: any neighbor joined the IS.
  aggs.push_back(sim::agg_or([](std::span<const std::uint64_t> s) {
    return static_cast<std::uint64_t>(s[kStatus] == kInIs);
  }));
  // 3: max candidacy time among still-active neighbors (undecided = inf).
  aggs.push_back(sim::agg_max(
      [](std::span<const std::uint64_t> s) {
        if (s[kStatus] == kUndecided) return kInfTime;
        if (s[kStatus] == kCandidate) return s[kTime];
        return std::uint64_t{0};
      },
      kTimeBits));
  return aggs;
}

void ColoringMaxIsAggProgram::init(sim::AggCtx& ctx) {
  auto st = ctx.state();
  const Weight w = (*weights_)[ctx.agent()];
  st[kColor] = (*colors_)[ctx.agent()];
  st[kTime] = kInfTime;
  if (w <= 0) {
    st[kStatus] = kRemoved;
    ctx.halt(kOutNotInIs);
    return;
  }
  st[kStatus] = kUndecided;
  st[kWeight] = static_cast<std::uint64_t>(w);
}

void ColoringMaxIsAggProgram::round(sim::AggCtx& ctx) {
  auto st = ctx.state();
  const auto aggs = ctx.aggregates();
  if (aggs[2] != 0) {  // a neighbor joined
    DISTAPX_ENSURE_MSG(st[kStatus] == kCandidate,
                       "non-candidate agent " << ctx.agent()
                                              << " saw an IS neighbor");
    st[kStatus] = kRemoved;
    ctx.halt(kOutNotInIs);
    return;
  }
  if (st[kStatus] == kCandidate) {
    st[kFreshReduce] = 0;  // published exactly once, right after candidacy
    if (aggs[3] < st[kTime]) {
      st[kStatus] = kInIs;
      ctx.halt(kOutInIs);
    }
    return;
  }
  DISTAPX_ASSERT(st[kStatus] == kUndecided);
  // Apply this round's reductions first; dying agents announce `removed`.
  const std::uint64_t reduce = aggs[1];
  if (reduce >= st[kWeight]) {
    st[kStatus] = kRemoved;
    ctx.halt(kOutNotInIs);
    return;
  }
  st[kWeight] -= reduce;
  // Locally maximal color among surviving undecided neighbors: perform
  // the local-ratio reduction (become a candidate).
  if (aggs[0] < st[kColor] + 1) {
    st[kStatus] = kCandidate;
    st[kTime] = ctx.round();
    st[kFreshReduce] = st[kWeight];
    st[kWeight] = 0;
  }
}

MaxIsResult run_coloring_maxis_agg(const Graph& g, const NodeWeights& w,
                                   const std::vector<Color>& colors,
                                   const sim::RunOptions& opts) {
  DISTAPX_ENSURE(w.size() == g.num_nodes());
  DISTAPX_ENSURE_MSG(is_proper_coloring(g, colors),
                     "Algorithm 3 requires a proper coloring");
  const Weight max_w =
      w.empty() ? 1 : std::max<Weight>(1, *std::max_element(w.begin(),
                                                            w.end()));
  Color num_colors = 0;
  for (Color c : colors) num_colors = std::max(num_colors, c + 1);
  ColoringMaxIsAggProgram prog(w, colors, max_w, num_colors);
  const auto run = sim::run_on_nodes(g, prog, opts);
  MaxIsResult out;
  out.metrics = run.metrics;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (run.outputs[v] == kOutInIs) out.independent_set.push_back(v);
  }
  return out;
}

DetLrMatchingResult run_lr_matching_deterministic(
    const Graph& g, const EdgeWeights& w, const sim::RunOptions& opts) {
  DISTAPX_ENSURE(w.size() == g.num_edges());
  DetLrMatchingResult out;
  if (g.num_edges() == 0) {
    out.coloring_metrics.completed = out.matching_metrics.completed = true;
    return out;
  }

  // Coloring black box: a proper coloring of L(G) (= proper edge coloring
  // of G) via the deterministic Linial substrate on the explicit line
  // graph. Simulating it on G costs a constant factor per round ([Kuh05]);
  // we report its metrics separately like Algorithm 3 charges [BEK14].
  const LineGraph lg(g);
  const auto coloring = linial_coloring(lg.graph(), opts);
  out.coloring_metrics = coloring.metrics;
  out.num_colors = coloring.num_colors;
  if (!coloring.metrics.completed) return out;

  const Weight max_w = *std::max_element(w.begin(), w.end());
  ColoringMaxIsAggProgram prog(w, coloring.colors, max_w,
                               coloring.num_colors);
  const auto run = sim::run_on_line_graph(
      g, prog, sim::sub_run(opts, opts.seed, coloring.metrics));
  out.matching_metrics = run.metrics;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (run.outputs[e] == kOutInIs) out.matching.push_back(e);
  }
  return out;
}

}  // namespace distapx
