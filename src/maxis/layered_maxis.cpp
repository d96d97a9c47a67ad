#include "maxis/layered_maxis.hpp"

#include <algorithm>
#include <memory>

#include "sim/workspace.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

// Layer of a positive weight: index i with 2^{i-1} < w <= 2^i.
std::uint32_t layer_of(Weight w) {
  DISTAPX_ASSERT(w > 0);
  return static_cast<std::uint32_t>(
      ceil_log2(static_cast<std::uint64_t>(w)));
}

constexpr int kLayerBits = 7;  // layers fit in [0, 63]

class LayeredProgram final : public LocalRatioNodeBase {
 public:
  LayeredProgram(Weight weight, LayeredMaxIsParams params, int value_bits,
                 int reduce_bits)
      : LocalRatioNodeBase(weight),
        params_(params),
        value_bits_(value_bits),
        reduce_bits_(reduce_bits) {}

  void init(sim::Ctx& ctx) override {
    LocalRatioNodeBase::init(ctx);
    nbr_layer_.assign(ctx.degree(), 0);
  }

  void round(sim::Ctx& ctx) override {
    const std::uint32_t phase = (ctx.round() - 1) % 4;
    if (!process_control_messages(ctx)) return;
    switch (phase) {
      case 0: {
        if (!try_join(ctx)) return;
        if (role_ == Role::kUndecided) {
          sim::Message m(kMsgLayer);
          m.push(layer_of(w_), kLayerBits);
          send_to_undecided(ctx, m);
        }
        break;
      }
      case 1: {
        if (role_ != Role::kUndecided) break;
        for (const auto& d : ctx.inbox()) {
          if (d.msg.type() == kMsgLayer) {
            nbr_layer_[d.port] =
                static_cast<std::uint32_t>(d.msg.field(0));
          }
        }
        eligible_ = true;
        if (params_.use_layers) {
          const std::uint32_t mine = layer_of(w_);
          for (std::uint32_t p = 0; p < undecided_nbr_.size(); ++p) {
            if (undecided_nbr_[p] && nbr_layer_[p] > mine) {
              eligible_ = false;
              break;
            }
          }
        }
        if (eligible_) send_selection_value(ctx);
        break;
      }
      case 2: {
        if (role_ != Role::kUndecided || !eligible_) break;
        if (selection_won(ctx)) {
          become_candidate(ctx, reduce_bits_);
        }
        break;
      }
      case 3: {
        if (role_ != Role::kUndecided) break;
        if (!apply_reductions(ctx)) return;
        break;
      }
      default:
        break;
    }
  }

 private:
  void send_selection_value(sim::Ctx& ctx) {
    switch (params_.rule) {
      case MisSelectionRule::kLubyValue: {
        value_ = ctx.rng().next() &
                 ((std::uint64_t{1} << value_bits_) - 1);
        sim::Message m(kMsgValue);
        m.push(value_, value_bits_);
        send_to_undecided(ctx, m);
        break;
      }
      case MisSelectionRule::kCoin: {
        marked_ = ctx.rng().bernoulli(0.5);
        if (marked_) {
          send_to_undecided(ctx, sim::Message(kMsgValue));
        }
        break;
      }
      case MisSelectionRule::kIdGreedy: {
        send_to_undecided(ctx, sim::Message(kMsgValue));
        break;
      }
    }
  }

  [[nodiscard]] bool selection_won(sim::Ctx& ctx) const {
    switch (params_.rule) {
      case MisSelectionRule::kLubyValue: {
        for (const auto& d : ctx.inbox()) {
          if (d.msg.type() != kMsgValue) continue;
          const std::uint64_t theirs = d.msg.field(0);
          const NodeId their_id = ctx.neighbor(d.port);
          if (theirs > value_ ||
              (theirs == value_ && their_id > ctx.id())) {
            return false;
          }
        }
        return true;
      }
      case MisSelectionRule::kCoin: {
        if (!marked_) return false;
        for (const auto& d : ctx.inbox()) {
          if (d.msg.type() == kMsgValue) return false;
        }
        return true;
      }
      case MisSelectionRule::kIdGreedy: {
        for (const auto& d : ctx.inbox()) {
          if (d.msg.type() == kMsgValue &&
              ctx.neighbor(d.port) > ctx.id()) {
            return false;
          }
        }
        return true;
      }
    }
    return false;
  }

  LayeredMaxIsParams params_;
  int value_bits_;
  int reduce_bits_;
  std::vector<std::uint32_t> nbr_layer_;
  std::uint64_t value_ = 0;
  bool marked_ = false;
  bool eligible_ = false;
};

}  // namespace

sim::ProgramFactory make_layered_maxis_program(const Graph& g,
                                               const NodeWeights& w,
                                               Weight max_weight,
                                               LayeredMaxIsParams params) {
  DISTAPX_ENSURE(w.size() == g.num_nodes());
  const int value_bits =
      2 * bits_for_count(std::max<NodeId>(g.num_nodes(), 2));
  const int reduce_bits =
      bits_for_value(static_cast<std::uint64_t>(std::max<Weight>(
          max_weight, 1)));
  return [&w, params, value_bits, reduce_bits](NodeId v) {
    return std::make_unique<LayeredProgram>(w[v], params, value_bits,
                                            reduce_bits);
  };
}

MaxIsResult run_layered_maxis(const Graph& g, const NodeWeights& w,
                              const sim::RunOptions& opts,
                              LayeredMaxIsParams params) {
  const Weight max_w =
      w.empty() ? 1 : *std::max_element(w.begin(), w.end());
  const auto result = sim::run_network(
      g, make_layered_maxis_program(g, w, max_w, params), opts);
  MaxIsResult out;
  out.metrics = result.metrics;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (result.outputs[v] == kOutInIs) out.independent_set.push_back(v);
  }
  return out;
}

}  // namespace distapx
