#include "mis/luby.hpp"

#include <memory>
#include <vector>

#include "sim/workspace.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx {
namespace {

enum MsgType : std::uint32_t { kValue = 1, kJoin = 2, kRemoved = 3 };

class LubyProgram final : public sim::NodeProgram {
 public:
  explicit LubyProgram(int value_bits) : value_bits_(value_bits) {}

  void init(sim::Ctx& ctx) override {
    alive_.assign(ctx.degree(), true);
    if (ctx.degree() == 0) {
      // Isolated nodes are trivially in every MIS.
      ctx.halt(kOutInIs);
    }
  }

  void round(sim::Ctx& ctx) override {
    const std::uint32_t phase = (ctx.round() - 1) % 3;
    switch (phase) {
      case 0: {  // process removals, send values
        for (const auto& d : ctx.inbox()) {
          DISTAPX_ASSERT(d.msg.type() == kRemoved);
          alive_[d.port] = false;
        }
        if (!any_alive()) {
          // All neighbors decided without excluding us: we join.
          ctx.halt(kOutInIs);
          return;
        }
        value_ = ctx.rng().next() &
                 ((std::uint64_t{1} << value_bits_) - 1);
        sim::Message m(kValue);
        m.push(value_, value_bits_);
        send_alive(ctx, m);
        break;
      }
      case 1: {  // decide
        bool winner = true;
        for (const auto& d : ctx.inbox()) {
          DISTAPX_ASSERT(d.msg.type() == kValue);
          const std::uint64_t theirs = d.msg.field(0);
          const NodeId their_id = ctx.neighbor(d.port);
          if (theirs > value_ ||
              (theirs == value_ && their_id > ctx.id())) {
            winner = false;
          }
        }
        if (winner) {
          send_alive(ctx, sim::Message(kJoin));
          ctx.halt(kOutInIs);
        }
        break;
      }
      case 2: {  // removed by a joining neighbor
        bool joined_neighbor = false;
        for (const auto& d : ctx.inbox()) {
          if (d.msg.type() == kJoin) joined_neighbor = true;
        }
        if (joined_neighbor) {
          send_alive(ctx, sim::Message(kRemoved));
          ctx.halt(kOutNotInIs);
        }
        break;
      }
      default:
        break;
    }
  }

 private:
  [[nodiscard]] bool any_alive() const {
    for (bool a : alive_) {
      if (a) return true;
    }
    return false;
  }

  void send_alive(sim::Ctx& ctx, const sim::Message& m) {
    for (std::uint32_t p = 0; p < alive_.size(); ++p) {
      if (alive_[p]) ctx.send(p, m);
    }
  }

  int value_bits_;
  std::uint64_t value_ = 0;
  std::vector<bool> alive_;
};

}  // namespace

sim::ProgramFactory make_luby_program(const Graph& g) {
  const int value_bits = 2 * bits_for_count(std::max<NodeId>(g.num_nodes(), 2));
  return [value_bits](NodeId) {
    return std::make_unique<LubyProgram>(value_bits);
  };
}

IsResult run_luby_mis(const Graph& g, const sim::RunOptions& opts) {
  const auto result = sim::run_network(g, make_luby_program(g), opts);
  return collect_is(result.outputs, result.metrics);
}

}  // namespace distapx
