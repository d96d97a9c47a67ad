#include "coloring/linial.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

// Evaluates the polynomial whose coefficients are the base-q digits of
// `color` (degree <= d) at point x, over GF(q).
std::uint64_t poly_eval(std::uint64_t color, std::uint64_t q, std::uint32_t d,
                        std::uint64_t x) {
  // Horner over the digits from most significant to least significant.
  std::uint64_t digits[64];
  for (std::uint32_t i = 0; i <= d; ++i) {
    digits[i] = color % q;
    color /= q;
  }
  std::uint64_t acc = 0;
  for (std::uint32_t i = d + 1; i-- > 0;) {
    acc = (acc * x + digits[i]) % q;
  }
  return acc;
}

enum MsgType : std::uint32_t { kColor = 1 };

class LinialProgram final : public sim::NodeProgram {
 public:
  LinialProgram(const LinialSchedule* schedule, std::uint32_t max_degree)
      : schedule_(schedule), max_degree_(max_degree) {}

  void init(sim::Ctx& ctx) override {
    color_ = ctx.id();
    m_current_ = ctx.num_nodes();
    broadcast_color(ctx);
    if (total_rounds(ctx) == 0) {
      ctx.halt(static_cast<std::int64_t>(color_));
    }
  }

  void round(sim::Ctx& ctx) override {
    const std::uint32_t r = ctx.round();
    const auto num_steps =
        static_cast<std::uint32_t>(schedule_->steps.size());
    if (r <= num_steps) {
      apply_reduction_step(ctx, schedule_->steps[r - 1]);
    } else {
      apply_elimination(ctx, r - num_steps - 1);
    }
    if (r == total_rounds(ctx)) {
      ctx.halt(static_cast<std::int64_t>(color_));
    } else {
      broadcast_color(ctx);
    }
  }

 private:
  [[nodiscard]] std::uint32_t total_rounds(const sim::Ctx& ctx) const {
    const auto steps = static_cast<std::uint32_t>(schedule_->steps.size());
    const std::uint64_t final_c = schedule_->final_colors;
    const std::uint64_t target = std::uint64_t{max_degree_} + 1;
    const std::uint32_t elim =
        final_c > target ? static_cast<std::uint32_t>(final_c - target) : 0;
    (void)ctx;
    return steps + elim;
  }

  void broadcast_color(sim::Ctx& ctx) {
    sim::Message m(kColor);
    m.push(color_, bits_for_count(std::max<std::uint64_t>(m_current_, 2)));
    ctx.broadcast(m);
  }

  void apply_reduction_step(sim::Ctx& ctx, const LinialSchedule::Step& step) {
    DISTAPX_ASSERT(color_ < step.m_in);
    // Pick the smallest x in GF(q) where our polynomial differs from every
    // neighbor's. Distinct degree-d polynomials agree on <= d points and we
    // have <= Δ neighbors, so q > d*Δ guarantees existence.
    std::uint64_t chosen_x = step.q;  // sentinel
    for (std::uint64_t x = 0; x < step.q; ++x) {
      const std::uint64_t mine = poly_eval(color_, step.q, step.degree, x);
      bool ok = true;
      for (const auto& d : ctx.inbox()) {
        DISTAPX_ASSERT(d.msg.type() == kColor);
        const std::uint64_t theirs_color = d.msg.field(0);
        DISTAPX_ENSURE_MSG(theirs_color != color_,
                           "improper coloring reached node " << ctx.id());
        if (poly_eval(theirs_color, step.q, step.degree, x) == mine) {
          ok = false;
          break;
        }
      }
      if (ok) {
        chosen_x = x;
        color_ = x * step.q + mine;
        break;
      }
    }
    DISTAPX_ENSURE_MSG(chosen_x < step.q, "no valid GF(q) point found");
    m_current_ = step.m_out;
  }

  void apply_elimination(sim::Ctx& ctx, std::uint32_t elim_round) {
    const std::uint64_t victim = schedule_->final_colors - 1 - elim_round;
    if (color_ != victim) return;
    // Recolor into [0, Δ] avoiding fresh neighbor colors (adjacent nodes
    // never share the victim class, so no two recolor simultaneously).
    std::vector<bool> used(max_degree_ + 1, false);
    for (const auto& d : ctx.inbox()) {
      const std::uint64_t c = d.msg.field(0);
      if (c <= max_degree_) used[static_cast<std::size_t>(c)] = true;
    }
    std::uint64_t c = 0;
    while (c <= max_degree_ && used[static_cast<std::size_t>(c)]) ++c;
    DISTAPX_ENSURE_MSG(c <= max_degree_, "palette exhausted at node "
                                             << ctx.id());
    color_ = c;
  }

  const LinialSchedule* schedule_;
  std::uint32_t max_degree_;
  std::uint64_t color_ = 0;
  std::uint64_t m_current_ = 0;
};

}  // namespace

std::uint64_t next_prime(std::uint64_t x) {
  if (x <= 2) return 2;
  if (x % 2 == 0) ++x;
  for (;; x += 2) {
    bool prime = true;
    for (std::uint64_t f = 3; f * f <= x; f += 2) {
      if (x % f == 0) {
        prime = false;
        break;
      }
    }
    if (prime) return x;
  }
}

LinialSchedule build_linial_schedule(NodeId n, std::uint32_t max_degree) {
  LinialSchedule schedule;
  const std::uint64_t delta = std::max<std::uint32_t>(max_degree, 1);
  std::uint64_t m = std::max<NodeId>(n, 1);
  schedule.final_colors = m;
  if (m <= delta + 1) return schedule;

  for (;;) {
    // Try polynomial degrees and keep the one with the smallest result.
    std::uint64_t best_out = m;  // must strictly improve
    LinialSchedule::Step best{};
    for (std::uint32_t d = 1; d <= 60; ++d) {
      const double root =
          std::pow(static_cast<double>(m), 1.0 / (d + 1));
      const auto min_q = static_cast<std::uint64_t>(std::ceil(root));
      const std::uint64_t q =
          next_prime(std::max<std::uint64_t>(d * delta + 1, min_q));
      const std::uint64_t out = q * q;
      if (out < best_out) {
        best_out = out;
        best = {m, d, q, out};
      }
      // Larger d only helps while m^{1/(d+1)} dominates d*Δ.
      if (static_cast<std::uint64_t>(d) * delta + 1 >= min_q && d > 1) break;
    }
    if (best_out >= m) break;  // fixpoint (O(Δ²) colors) reached
    schedule.steps.push_back(best);
    m = best_out;
  }
  schedule.final_colors = m;
  return schedule;
}

sim::ProgramFactory make_linial_program(const Graph& g) {
  const auto schedule = std::make_shared<LinialSchedule>(
      build_linial_schedule(g.num_nodes(), g.max_degree()));
  const std::uint32_t delta = g.max_degree();
  return [schedule, delta](NodeId) {
    return std::make_unique<LinialProgram>(schedule.get(), delta);
  };
}

ColoringResult linial_coloring(const Graph& g, const sim::RunOptions& opts) {
  // Colors start as raw ids (log n bits) and shrink; O(log n) per message.
  const auto result = sim::Network(g).run(make_linial_program(g), opts);
  ColoringResult out;
  out.metrics = result.metrics;
  out.colors.resize(g.num_nodes());
  Color max_c = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.colors[v] = static_cast<Color>(result.outputs[v]);
    max_c = std::max(max_c, out.colors[v]);
  }
  out.num_colors = g.num_nodes() == 0 ? 0 : max_c + 1;
  return out;
}

}  // namespace distapx
