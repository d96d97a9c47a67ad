#include "coloring/linial.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sim/workspace.hpp"
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
    nbr_color_.resize(ctx.degree());
    if (schedule_->total_rounds() == 0) {
      ctx.halt(static_cast<std::int64_t>(color_));
    } else {
      broadcast_color(ctx, ctx.num_nodes());
    }
  }

  void round(sim::Ctx& ctx) override {
    // Every neighbor announced its id in init() and every later change,
    // so the table holds each neighbor's current color.
    for (const auto& d : ctx.inbox()) {
      DISTAPX_ASSERT(d.msg.type() == kColor);
      nbr_color_[d.port] = d.msg.field(0);
    }
    const LinialSchedule& s = *schedule_;
    const std::uint32_t r = ctx.round();
    const auto num_steps = static_cast<std::uint32_t>(s.steps.size());
    const std::uint64_t before = color_;
    std::uint64_t palette = 0;
    if (r <= num_steps) {
      apply_reduction_step(ctx, s.steps[r - 1]);
      palette = s.steps[r - 1].m_out;
    } else if (r <= num_steps + s.additive_rounds) {
      apply_additive_step(s.additive_q);
      // a = c / q never changes, so colors stay below ceil(m / q)·q <= q²;
      // b moves over all of [0, q), past the last Linial step's palette.
      const std::uint64_t q = s.additive_q;
      palette = (s.final_colors + q - 1) / q * q;
      if (r == num_steps + s.additive_rounds) {
        DISTAPX_ENSURE_MSG(color_ < q,
                           "additive stage left node " << ctx.id()
                                                       << " at color "
                                                       << color_);
      }
    } else {
      const std::uint32_t e = r - num_steps - s.additive_rounds - 1;
      apply_elimination(ctx, s.elimination_colors() - 1 - e);
      palette = s.elimination_colors();
    }
    if (r == s.total_rounds()) {
      ctx.halt(static_cast<std::int64_t>(color_));
    } else if (color_ != before) {
      broadcast_color(ctx, palette);
    }
  }

 private:
  void broadcast_color(sim::Ctx& ctx, std::uint64_t palette) {
    sim::Message m(kColor);
    m.push(color_, bits_for_count(std::max<std::uint64_t>(palette, 2)));
    ctx.broadcast(m);
  }

  void apply_reduction_step(sim::Ctx& ctx, const LinialSchedule::Step& step) {
    DISTAPX_ASSERT(color_ < step.m_in);
    for (const std::uint64_t theirs : nbr_color_) {
      DISTAPX_ENSURE_MSG(theirs != color_,
                         "improper coloring reached node " << ctx.id());
    }
    // Pick the smallest x in GF(q) where our polynomial differs from every
    // neighbor's. Distinct degree-d polynomials agree on <= d points and we
    // have <= Δ neighbors, so q > d*Δ guarantees existence.
    for (std::uint64_t x = 0; x < step.q; ++x) {
      const std::uint64_t mine = poly_eval(color_, step.q, step.degree, x);
      const bool ok = std::none_of(
          nbr_color_.begin(), nbr_color_.end(), [&](std::uint64_t theirs) {
            return poly_eval(theirs, step.q, step.degree, x) == mine;
          });
      if (ok) {
        color_ = x * step.q + mine;
        return;
      }
    }
    DISTAPX_ENSURE_MSG(false, "no valid GF(q) point found");
  }

  // One round of the additive-group stage on c = a*q + b. Nodes with
  // a == 0 are finished; the rest fix at b once no neighbor's color, moving
  // or finished, has b-part b, and otherwise step b by a.
  void apply_additive_step(std::uint64_t q) {
    const std::uint64_t a = color_ / q;
    const std::uint64_t b = color_ % q;
    if (a == 0) return;
    const bool blocked =
        std::any_of(nbr_color_.begin(), nbr_color_.end(),
                    [&](std::uint64_t theirs) { return theirs % q == b; });
    color_ = blocked ? a * q + (b + a) % q : b;
  }

  void apply_elimination(sim::Ctx& ctx, std::uint64_t victim) {
    if (color_ != victim) return;
    // Recolor into [0, Δ] avoiding the neighbors' colors (adjacent nodes
    // never share the victim class, so no two recolor simultaneously).
    std::vector<bool> used(max_degree_ + 1, false);
    for (const std::uint64_t c : nbr_color_) {
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
  std::vector<std::uint64_t> nbr_color_;  ///< last color heard, by port
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
  while (m > delta + 1) {
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

  // The d = 2 candidate improves on any m > next_prime(2Δ+1)², so the
  // fixpoint fits the additive stage's q² colors.
  const std::uint64_t q = next_prime(2 * delta + 1);
  DISTAPX_ENSURE_MSG(m <= q * q, "Linial fixpoint " << m << " exceeds q² = "
                                                    << q * q);
  schedule.additive_q = q;
  schedule.additive_rounds = m > q ? static_cast<std::uint32_t>(q) : 0;
  const std::uint64_t colors = schedule.elimination_colors();
  const std::uint64_t target = std::uint64_t{max_degree} + 1;
  schedule.elimination_rounds =
      colors > target ? static_cast<std::uint32_t>(colors - target) : 0;
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
  const auto result = sim::run_network(g, make_linial_program(g), opts);
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
