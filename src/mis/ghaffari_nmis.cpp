#include "mis/ghaffari_nmis.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "graph/algos.hpp"
#include "mis/luby.hpp"
#include "sim/workspace.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

// Fixed-point scale for effective-degree sums: deterministic across
// platforms, resolution 2^-30 (probabilities below that are ~0 anyway).
constexpr std::uint64_t kFx = std::uint64_t{1} << 30;

std::uint64_t prob_fx(std::uint32_t K, std::uint32_t j) {
  // K^{-j} in fixed point via integer division; saturates to 0.
  std::uint64_t denom = 1;
  for (std::uint32_t i = 0; i < j; ++i) {
    if (denom > kFx) return 0;
    denom *= K;
  }
  return kFx / denom;
}

enum MsgType : std::uint32_t {
  kExponent = 1,
  kMarked = 2,
  kJoin = 3,
  kRemoved = 4,
};

class NmisProgram final : public sim::NodeProgram {
 public:
  NmisProgram(NmisParams params, std::uint32_t iterations, int exp_bits,
              const std::vector<double>* mark_prob)
      : params_(params),
        iterations_(iterations),
        exp_bits_(exp_bits),
        mark_prob_(mark_prob) {}

  void init(sim::Ctx& ctx) override {
    alive_.assign(ctx.degree(), true);
    if (ctx.degree() == 0) {
      ctx.halt(kOutInIs);
    }
  }

  void round(sim::Ctx& ctx) override {
    const std::uint32_t phase = (ctx.round() - 1) % 3;
    switch (phase) {
      case 0: {
        // Process join/removal notices from the previous iteration.
        bool neighbor_joined = false;
        for (const auto& d : ctx.inbox()) {
          if (d.msg.type() == kJoin) neighbor_joined = true;
          if (d.msg.type() == kRemoved) alive_[d.port] = false;
        }
        if (neighbor_joined) {
          send_alive(ctx, sim::Message(kRemoved));
          ctx.halt(kOutNotInIs);
          return;
        }
        if (iteration_ >= iterations_) {
          ctx.halt(kOutUndecided);
          return;
        }
        if (!any_alive()) {
          ctx.halt(kOutInIs);
          return;
        }
        sim::Message m(kExponent);
        m.push(exponent_, exp_bits_);
        send_alive(ctx, m);
        break;
      }
      case 1: {
        // Effective degree from neighbors' probabilities; mark. The inbox
        // may also hold kRemoved notices from nodes that died in phase 0.
        std::uint64_t d_fx = 0;
        for (const auto& d : ctx.inbox()) {
          if (d.msg.type() == kRemoved) {
            alive_[d.port] = false;
            continue;
          }
          DISTAPX_ASSERT(d.msg.type() == kExponent);
          d_fx += prob_fx(params_.K,
                          static_cast<std::uint32_t>(d.msg.field(0)));
        }
        high_degree_ = d_fx >= 2 * kFx;
        marked_ = ctx.rng().bernoulli((*mark_prob_)[exponent_]);
        if (marked_) {
          send_alive(ctx, sim::Message(kMarked));
        }
        break;
      }
      case 2: {
        bool neighbor_marked = false;
        for (const auto& d : ctx.inbox()) {
          if (d.msg.type() == kMarked) neighbor_marked = true;
        }
        if (marked_ && !neighbor_marked) {
          send_alive(ctx, sim::Message(kJoin));
          ctx.halt(kOutInIs);
          return;
        }
        // p_{t+1} = p/K if d_t >= 2 else min(K p, 1/K).
        if (high_degree_) {
          ++exponent_;
        } else if (exponent_ > 1) {
          --exponent_;
        }
        exponent_ = std::min(exponent_,
                             (std::uint32_t{1} << exp_bits_) - 1);
        ++iteration_;
        break;
      }
      default:
        break;
    }
  }

 private:
  [[nodiscard]] bool any_alive() const {
    return std::any_of(alive_.begin(), alive_.end(),
                       [](bool a) { return a; });
  }

  void send_alive(sim::Ctx& ctx, const sim::Message& m) {
    for (std::uint32_t p = 0; p < alive_.size(); ++p) {
      if (alive_[p]) ctx.send(p, m);
    }
  }

  NmisParams params_;
  std::uint32_t iterations_;
  int exp_bits_;
  const std::vector<double>* mark_prob_;  ///< K^-j, shared by all nodes
  std::uint32_t exponent_ = 1;  // p = K^{-exponent}
  std::uint32_t iteration_ = 0;
  bool marked_ = false;
  bool high_degree_ = false;
  std::vector<bool> alive_;
};

}  // namespace

std::uint32_t nmis_iteration_budget(std::uint32_t max_degree,
                                    const NmisParams& params) {
  if (params.iterations > 0) return params.iterations;
  DISTAPX_ENSURE(params.K >= 2);
  DISTAPX_ENSURE(params.delta > 0 && params.delta < 1);
  const double log_delta =
      std::log2(static_cast<double>(std::max<std::uint32_t>(max_degree, 2)));
  const double term1 = log_delta / std::log2(static_cast<double>(params.K));
  const double term2 = static_cast<double>(params.K) * params.K *
                       std::log(1.0 / params.delta);
  return static_cast<std::uint32_t>(
      std::ceil(params.beta * (term1 + term2))) + 1;
}

std::vector<double> nmis_mark_probabilities(std::uint32_t K, int exp_bits) {
  std::vector<double> prob(std::size_t{1} << exp_bits);
  for (std::size_t j = 0; j < prob.size(); ++j) {
    prob[j] = std::pow(static_cast<double>(K), -static_cast<double>(j));
  }
  return prob;
}

sim::ProgramFactory make_nmis_program(const Graph& g, NmisParams params) {
  const std::uint32_t iters = nmis_iteration_budget(g.max_degree(), params);
  const int exp_bits =
      std::max(4, bits_for_value(static_cast<std::uint64_t>(iters) + 1));
  const auto mark_prob = std::make_shared<const std::vector<double>>(
      nmis_mark_probabilities(params.K, exp_bits));
  return [params, iters, exp_bits, mark_prob](NodeId) {
    return std::make_unique<NmisProgram>(params, iters, exp_bits,
                                         mark_prob.get());
  };
}

IsResult run_nmis(const Graph& g, const sim::RunOptions& opts,
                  NmisParams params) {
  const auto result =
      sim::run_network(g, make_nmis_program(g, params), opts);
  return collect_is(result.outputs, result.metrics);
}

IsResult run_nmis_then_luby(const Graph& g, const sim::RunOptions& opts,
                            NmisParams params) {
  IsResult first = run_nmis(g, opts, params);
  if (first.undecided.empty() || !first.metrics.completed) return first;

  // Undecided nodes have no neighbor in the IS (joins are processed before
  // the budget check), so an MIS of their induced subgraph completes the IS.
  std::vector<bool> keep(g.num_nodes(), false);
  for (NodeId v : first.undecided) keep[v] = true;
  const auto sub = induced_subgraph(g, keep);
  IsResult finish = run_luby_mis(
      sub.graph,
      sim::within(
          sim::sub_run(opts, hash_combine(opts.seed, 0x10b5), first.metrics),
          g));
  for (NodeId v : finish.independent_set) {
    first.independent_set.push_back(sub.original_id[v]);
  }
  first.undecided.clear();
  sim::accumulate(first.metrics, finish.metrics);
  return first;
}

}  // namespace distapx
