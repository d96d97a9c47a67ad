#include "coloring/rand_coloring.hpp"

#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

enum MsgType : std::uint32_t { kCandidate = 1, kFinal = 2 };

class TrialColoringProgram final : public sim::NodeProgram {
 public:
  explicit TrialColoringProgram(int color_bits) : color_bits_(color_bits) {}

  void init(sim::Ctx& ctx) override {
    taken_.assign(ctx.degree() + 1, false);
    uncolored_nbr_.assign(ctx.degree(), true);
    if (ctx.degree() == 0) {
      ctx.halt(0);
    }
  }

  void round(sim::Ctx& ctx) override {
    const std::uint32_t phase = (ctx.round() - 1) % 2;
    if (phase == 0) {
      // Learn finalized neighbor colors, then draw a candidate.
      for (const auto& d : ctx.inbox()) {
        if (d.msg.type() == kFinal) {
          uncolored_nbr_[d.port] = false;
          const std::uint64_t c = d.msg.field(0);
          if (c < taken_.size()) taken_[c] = true;
        }
      }
      candidate_ = draw_candidate(ctx);
      sim::Message m(kCandidate);
      m.push(candidate_, color_bits_);
      send_uncolored(ctx, m);
    } else {
      bool conflict = false;
      for (const auto& d : ctx.inbox()) {
        if (d.msg.type() == kCandidate && d.msg.field(0) == candidate_) {
          conflict = true;
        }
        if (d.msg.type() == kFinal) {
          // A neighbor finalized in the same exchange; treat as taken.
          uncolored_nbr_[d.port] = false;
          const std::uint64_t c = d.msg.field(0);
          if (c < taken_.size()) taken_[c] = true;
          if (c == candidate_) conflict = true;
        }
      }
      if (!conflict) {
        sim::Message m(kFinal);
        m.push(candidate_, color_bits_);
        send_uncolored(ctx, m);
        ctx.halt(static_cast<std::int64_t>(candidate_));
      }
    }
  }

 private:
  std::uint64_t draw_candidate(sim::Ctx& ctx) {
    // Palette is [0, deg(v)]; at least one color is always free.
    std::vector<std::uint64_t> free;
    free.reserve(taken_.size());
    for (std::uint64_t c = 0; c < taken_.size(); ++c) {
      if (!taken_[c]) free.push_back(c);
    }
    DISTAPX_ENSURE(!free.empty());
    return free[ctx.rng().next_below(free.size())];
  }

  void send_uncolored(sim::Ctx& ctx, const sim::Message& m) {
    for (std::uint32_t p = 0; p < uncolored_nbr_.size(); ++p) {
      if (uncolored_nbr_[p]) ctx.send(p, m);
    }
  }

  int color_bits_;
  std::uint64_t candidate_ = 0;
  std::vector<bool> taken_;
  std::vector<bool> uncolored_nbr_;
};

}  // namespace

ColoringResult randomized_coloring(const Graph& g,
                                   const sim::RunOptions& opts) {
  sim::Network net(g);
  const int color_bits =
      bits_for_count(std::uint64_t{g.max_degree()} + 1);
  const auto result = net.run(
      [color_bits](NodeId) {
        return std::make_unique<TrialColoringProgram>(color_bits);
      },
      opts);
  ColoringResult out;
  out.metrics = result.metrics;
  out.colors.resize(g.num_nodes());
  Color max_c = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.colors[v] = static_cast<Color>(result.outputs[v]);
    max_c = std::max(max_c, out.colors[v]);
  }
  out.num_colors = g.num_nodes() == 0 ? 0 : max_c + 1;
  DISTAPX_ENSURE_MSG(!out.metrics.completed ||
                         is_proper_coloring(g, out.colors),
                     "randomized coloring produced an improper coloring");
  return out;
}

}  // namespace distapx
