#include "sim/network.hpp"

#include <algorithm>
#include <numeric>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx::sim {

std::uint32_t BandwidthPolicy::cap_bits(NodeId n) const {
  if (!bounded) return 0;
  // The log term is floored at 8: CONGEST messages hold at least a
  // constant-size word, and O(log n) bounds only bite asymptotically —
  // without the floor, toy graphs (n < 256) would reject legal programs.
  return multiplier *
         std::max<std::uint32_t>(
             8, static_cast<std::uint32_t>(
                    ceil_log2(std::max<NodeId>(n, 2))));
}

NodeId Ctx::num_nodes() const noexcept { return net_->g_->num_nodes(); }
std::uint32_t Ctx::degree() const noexcept { return net_->g_->degree(id_); }
std::uint32_t Ctx::max_degree() const noexcept {
  return net_->g_->max_degree();
}

NodeId Ctx::neighbor(std::uint32_t port) const {
  const auto nbrs = net_->g_->neighbors(id_);
  DISTAPX_ASSERT(port < nbrs.size());
  return nbrs[port].to;
}

namespace {
// Port of `v` in an adjacency sorted by neighbor id (GraphBuilder::build),
// or UINT32_MAX.
std::uint32_t find_port(std::span<const HalfEdge> nbrs, NodeId v) {
  const auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const HalfEdge& he, NodeId x) { return he.to < x; });
  if (it == nbrs.end() || it->to != v) return UINT32_MAX;
  return static_cast<std::uint32_t>(it - nbrs.begin());
}
}  // namespace

std::uint32_t Ctx::port_of(NodeId v) const {
  return find_port(net_->g_->neighbors(id_), v);
}

EdgeId Ctx::edge_of(std::uint32_t port) const {
  const auto nbrs = net_->g_->neighbors(id_);
  DISTAPX_ASSERT(port < nbrs.size());
  return nbrs[port].edge;
}

std::span<const Delivery> Ctx::inbox() const noexcept {
  const auto begin = net_->inbox_off_[id_];
  const auto end = net_->inbox_off_[id_ + 1];
  return {net_->inbox_store_.data() + begin, net_->inbox_store_.data() + end};
}

void Ctx::send(std::uint32_t port, const Message& m) {
  Network& net = *net_;
  DISTAPX_ENSURE_MSG(port < net.g_->degree(id_),
                     "node " << id_ << " sending on invalid port " << port);
  const auto bits = static_cast<std::uint32_t>(m.total_bits());
  const std::uint32_t slot = net.adj_base_[id_] + port;
  if (net.out_bits_[slot] == 0) net.touched_.push_back(slot);
  net.out_bits_[slot] += bits;
  // Built in place: a brace-initialised temporary makes GCC split the
  // record into narrow stores and wide reloads.
  Network::Staged& s = net.staged_.emplace_back();
  s.to = neighbor(port);
  s.arrival_port = net.rev_port_[slot];
  WireMessage& w = s.msg;
  w.type_ = m.type();
  w.total_bits_ = static_cast<int>(bits);
  w.count_ = static_cast<std::uint32_t>(m.num_fields());
  w.overflow_off_ = static_cast<std::uint32_t>(net.staged_arena_.size());
  for (std::uint32_t i = 0; i < w.count_; ++i) {
    if (i < WireMessage::kInlineFields) {
      w.inline_[i] = m.field(i);
    } else {
      net.staged_arena_.push_back(m.field(i));
    }
  }
}

void Ctx::broadcast(const Message& m) {
  const std::uint32_t deg = degree();
  for (std::uint32_t p = 0; p < deg; ++p) send(p, m);
}

void Ctx::halt(std::int64_t output) {
  auto& slot = net_->slots_[id_];
  slot.halted = true;
  slot.output = output;
}

Network::Network(const Graph& g) { rebind(g); }

void Network::rebind(const Graph& g) {
  g_ = &g;
  const NodeId n = g.num_nodes();
  // assign()/resize() keep the underlying capacity, so pointing the same
  // Network at a sequence of graphs only ever grows the buffers to the
  // largest graph seen.
  adj_base_.resize(n + 1);
  adj_base_[0] = 0;
  for (NodeId v = 0; v < n; ++v) adj_base_[v + 1] = adj_base_[v] + g.degree(v);
  out_bits_.assign(adj_base_[n], 0);
  // The port on which v's neighbor across p sees v (Ctx::port_of's rule).
  rev_port_.resize(adj_base_[n]);
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const std::uint32_t arrival = find_port(g.neighbors(nbrs[p].to), v);
      DISTAPX_ASSERT(arrival != UINT32_MAX);
      rev_port_[adj_base_[v] + p] = arrival;
    }
  }
  inbox_off_.assign(n + 1, 0);
  inbox_fill_.assign(n, 0);
  slots_.resize(n);
  staged_.clear();
  touched_.clear();
}

RunResult Network::run(const ProgramFactory& factory, const RunOptions& opts) {
  DISTAPX_ENSURE_MSG(g_ != nullptr, "Network::run on an unbound Network");
  const NodeId n = g_->num_nodes();
  cap_bits_ = opts.policy.cap_bits(n);
  enforce_ = opts.policy.bounded && opts.policy.enforce;

  // Reset run state in place; buffer capacity survives from earlier runs
  // (a previous run may have thrown mid-round, so clear transport state
  // unconditionally).
  staged_.clear();
  staged_arena_.clear();
  touched_.clear();
  std::fill(out_bits_.begin(), out_bits_.end(), 0);
  std::fill(inbox_off_.begin(), inbox_off_.end(), 0);

  const Rng root(opts.seed);
  for (NodeId v = 0; v < n; ++v) {
    auto& slot = slots_[v];
    slot.program = factory(v);
    DISTAPX_ENSURE(slot.program != nullptr);
    slot.rng = root.split(v);
    slot.halted = false;
    slot.output = 0;
  }
  active_.resize(n);
  std::iota(active_.begin(), active_.end(), NodeId{0});

  RunResult result;
  result.metrics.bandwidth_cap = cap_bits_;

  auto sweep = [&](std::uint32_t round_idx, bool is_init) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const NodeId v = active_[i];
      auto& slot = slots_[v];
      Ctx ctx;
      ctx.net_ = this;
      ctx.id_ = v;
      ctx.round_ = round_idx;
      ctx.rng_ = &slot.rng;
      if (is_init) {
        slot.program->init(ctx);
      } else {
        slot.program->round(ctx);
      }
      if (!slot.halted) active_[kept++] = v;
    }
    active_.resize(kept);
    const std::uint64_t msgs_before = result.metrics.messages;
    const std::uint64_t bits_before = result.metrics.total_bits;
    deliver_and_account(result.metrics);
    if (opts.observer) {
      RoundSample sample;
      sample.round = round_idx;
      sample.messages = result.metrics.messages - msgs_before;
      sample.bits = result.metrics.total_bits - bits_before;
      sample.nodes_halted = n - static_cast<NodeId>(active_.size());
      opts.observer(sample);
    }
  };

  sweep(0, /*is_init=*/true);

  std::uint32_t round = 0;
  while (!active_.empty() && round < opts.max_rounds) {
    ++round;
    sweep(round, /*is_init=*/false);
  }
  result.metrics.rounds = round;
  result.metrics.completed = active_.empty();

  result.outputs.resize(n);
  result.halted.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    result.outputs[v] = slots_[v].output;
    result.halted[v] = slots_[v].halted;
  }
  return result;
}

void Network::deliver_and_account(RunMetrics& metrics) {
  // Per-edge bit accounting: only the entries actually written this round.
  for (const std::uint32_t slot : touched_) {
    const std::uint32_t bits = out_bits_[slot];
    metrics.total_bits += bits;
    metrics.max_edge_bits = std::max(metrics.max_edge_bits, bits);
    if (enforce_ && bits > cap_bits_) {
      const NodeId sender = static_cast<NodeId>(
          std::upper_bound(adj_base_.begin(), adj_base_.end(), slot) -
          adj_base_.begin() - 1);
      DISTAPX_ENSURE_MSG(
          false, "CONGEST violation: node "
                     << sender << " sent " << bits
                     << " bits on one edge in one round"
                     << " (cap " << cap_bits_ << ")");
    }
    out_bits_[slot] = 0;
  }
  touched_.clear();

  // Stable counting sort of the staged sends by destination: preserves the
  // old per-node pending order (global send order) while keeping every
  // inbox in one flat buffer. Messages addressed to halted nodes are
  // dropped.
  const NodeId n = g_->num_nodes();
  std::fill(inbox_fill_.begin(), inbox_fill_.end(), 0);
  for (const auto& s : staged_) {
    if (!slots_[s.to].halted) ++inbox_fill_[s.to];
  }
  inbox_off_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    inbox_off_[v + 1] = inbox_off_[v] + inbox_fill_[v];
  }
  const std::uint32_t total = inbox_off_[n];
  metrics.messages += total;
  if (inbox_store_.size() < total) inbox_store_.resize(total);
  for (NodeId v = 0; v < n; ++v) inbox_fill_[v] = inbox_off_[v];
  // Last round's inbox is consumed: its arena becomes next round's staging.
  std::swap(staged_arena_, inbox_arena_);
  staged_arena_.clear();
  for (const auto& s : staged_) {
    if (slots_[s.to].halted) continue;
    Delivery& d = inbox_store_[inbox_fill_[s.to]++];
    d.port = s.arrival_port;
    d.msg = s.msg;
    if (d.msg.count_ > WireMessage::kInlineFields) {
      d.msg.overflow_ = inbox_arena_.data() + d.msg.overflow_off_;
    }
  }
  staged_.clear();
}

}  // namespace distapx::sim
