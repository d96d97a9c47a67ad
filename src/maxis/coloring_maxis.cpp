#include "maxis/coloring_maxis.hpp"

#include <algorithm>
#include <memory>

#include "coloring/linial.hpp"
#include "coloring/rand_coloring.hpp"
#include "sim/workspace.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

class ColoringMaxIsProgram final : public LocalRatioNodeBase {
 public:
  ColoringMaxIsProgram(Weight weight, Color color, int color_bits,
                       int reduce_bits)
      : LocalRatioNodeBase(weight),
        color_(color),
        color_bits_(color_bits),
        reduce_bits_(reduce_bits) {}

  void init(sim::Ctx& ctx) override {
    nbr_color_.assign(ctx.degree(), 0);
    // Colors are static: announce once, before the weight machinery may
    // halt us, so neighbors always have our color on file.
    sim::Message m(kMsgValue);
    m.push(color_, color_bits_);
    ctx.broadcast(m);
    LocalRatioNodeBase::init(ctx);
  }

  void round(sim::Ctx& ctx) override {
    // The one-time color announcements arrive in round 1.
    for (const auto& d : ctx.inbox()) {
      if (d.msg.type() == kMsgValue) {
        nbr_color_[d.port] = static_cast<Color>(d.msg.field(0));
      }
    }
    if (!process_control_messages(ctx)) return;
    const std::uint32_t phase = (ctx.round() - 1) % 2;
    if (phase == 0) {
      if (!try_join(ctx)) return;
      if (role_ == Role::kUndecided && locally_max_color()) {
        become_candidate(ctx, reduce_bits_);
      }
    } else {
      if (role_ != Role::kUndecided) return;
      if (!apply_reductions(ctx)) return;
    }
  }

 private:
  [[nodiscard]] bool locally_max_color() const {
    for (std::uint32_t p = 0; p < undecided_nbr_.size(); ++p) {
      if (undecided_nbr_[p] && nbr_color_[p] > color_) return false;
    }
    return true;
  }

  Color color_;
  int color_bits_;
  int reduce_bits_;
  std::vector<Color> nbr_color_;
};

void fill_is(const sim::RunResult& run, std::vector<NodeId>& out) {
  for (NodeId v = 0; v < run.outputs.size(); ++v) {
    if (run.outputs[v] == kOutInIs) out.push_back(v);
  }
}

}  // namespace

ColoringMaxIsResult run_coloring_maxis_with(const Graph& g,
                                            const NodeWeights& w,
                                            const std::vector<Color>& colors,
                                            const sim::RunOptions& opts) {
  DISTAPX_ENSURE(w.size() == g.num_nodes());
  DISTAPX_ENSURE_MSG(is_proper_coloring(g, colors),
                     "Algorithm 3 requires a proper coloring");
  Color num_colors = 0;
  for (Color c : colors) num_colors = std::max(num_colors, c + 1);
  const Weight max_w =
      w.empty() ? 1 : std::max<Weight>(1, *std::max_element(w.begin(),
                                                            w.end()));
  const int color_bits = bits_for_count(std::max<Color>(num_colors, 2));
  const int reduce_bits = bits_for_value(static_cast<std::uint64_t>(max_w));

  const auto run = sim::run_network(
      g,
      [&](NodeId v) {
        return std::make_unique<ColoringMaxIsProgram>(
            w[v], colors[v], color_bits, reduce_bits);
      },
      opts);

  ColoringMaxIsResult out;
  out.maxis_metrics = run.metrics;
  out.num_colors = num_colors;
  fill_is(run, out.independent_set);
  return out;
}

ColoringMaxIsResult run_coloring_maxis(const Graph& g, const NodeWeights& w,
                                       ColoringSource source,
                                       const sim::RunOptions& opts) {
  ColoringResult coloring = source == ColoringSource::kLinial
                                ? linial_coloring(g, opts)
                                : randomized_coloring(g, opts);
  ColoringMaxIsResult out;
  if (coloring.metrics.completed) {
    out = run_coloring_maxis_with(
        g, w, coloring.colors,
        sim::sub_run(opts, opts.seed, coloring.metrics));
  }
  out.coloring_metrics = coloring.metrics;
  return out;
}

}  // namespace distapx
