#include "test_helpers.hpp"

#include <sys/resource.h>
#include <sys/wait.h>

#include <bit>
#include <cstdlib>
#include <iterator>
#include <system_error>

#include "support/assert.hpp"

namespace distapx::test {

namespace {

constexpr int kSqueezeSetupFailed = 2;

/// RLIMIT_NPROC binds every uid but root, so root first becomes nobody.
bool drop_root() { return ::geteuid() != 0 || ::setuid(65534) == 0; }

bool set_thread_limit(rlim_t soft) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NPROC, &lim) != 0 || soft > lim.rlim_max) {
    return false;
  }
  lim.rlim_cur = soft;
  return ::setrlimit(RLIMIT_NPROC, &lim) == 0;
}

}  // namespace

bool OneFreeThreadSlot::possible() {
  const pid_t pid = ::fork();
  if (pid == 0) _exit(drop_root() && set_thread_limit(64) ? 0 : 1);
  int status = 0;
  return pid > 0 && ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

OneFreeThreadSlot::OneFreeThreadSlot() {
  if (!drop_root()) std::_Exit(kSqueezeSetupFailed);
  // The limit counts every thread of the uid, system wide, so the soft
  // limit grows until it leaves room for at least one parked thread.
  for (rlim_t soft = 64; parked_.empty(); soft *= 2) {
    if (!set_thread_limit(soft)) std::_Exit(kSqueezeSetupFailed);
    for (;;) {
      // More threads than the limit: it does not bind this process.
      if (parked_.size() >= soft) std::_Exit(kSqueezeSetupFailed);
      std::promise<void>& release = release_.emplace_back();
      try {
        parked_.emplace_back([gate = release.get_future()] { gate.wait(); });
      } catch (const std::system_error&) {
        release_.pop_back();
        break;
      }
    }
  }
  release_last();
}

OneFreeThreadSlot::~OneFreeThreadSlot() {
  while (!parked_.empty()) release_last();
}

void OneFreeThreadSlot::release_last() {
  release_.back().set_value();
  parked_.back().join();
  release_.pop_back();
  parked_.pop_back();
}

Weight brute_force_maxis_weight(const Graph& g, const NodeWeights& w) {
  const NodeId n = g.num_nodes();
  DISTAPX_ENSURE(n <= 20);
  std::vector<std::uint32_t> adj(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    adj[u] |= 1u << v;
    adj[v] |= 1u << u;
  }
  Weight best = 0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    Weight total = 0;
    bool ok = true;
    for (std::uint32_t rest = mask; rest != 0 && ok; rest &= rest - 1) {
      const auto v = static_cast<NodeId>(std::countr_zero(rest));
      if ((adj[v] & mask) != 0) ok = false;
      total += w[v];
    }
    if (ok && total > best) best = total;
  }
  return best;
}

namespace {
std::size_t mcm_rec(const Graph& g, EdgeId e, std::uint32_t used_mask) {
  if (e == g.num_edges()) return 0;
  std::size_t best = mcm_rec(g, e + 1, used_mask);
  const auto [u, v] = g.endpoints(e);
  if (((used_mask >> u) & 1) == 0 && ((used_mask >> v) & 1) == 0) {
    best = std::max(best, 1 + mcm_rec(g, e + 1,
                                      used_mask | (1u << u) | (1u << v)));
  }
  return best;
}
}  // namespace

std::size_t brute_force_mcm_size(const Graph& g) {
  DISTAPX_ENSURE(g.num_nodes() <= 32);
  DISTAPX_ENSURE(g.num_edges() <= 48);
  return mcm_rec(g, 0, 0);
}

std::vector<std::string> workspace_job_files() {
  // Every registry algorithm, in registry order, then again on other
  // graphs; the second job of each file runs on a graph of another size.
  const char* const algos[] = {"luby",     "nmis",     "maxis-alg2",
                               "maxis-alg3", "mwm-lr", "mwm-lr-det",
                               "mcm-2eps", "mwm-2eps", "mcm-1eps",
                               "proposal"};
  const char* const graphs[] = {"gnp:80:0.06", "tree:40", "grid:6:7",
                                "gnp:150:0.03", "regular:30:4"};
  std::vector<std::string> files;
  for (std::size_t i = 0; i < 22; ++i) {
    std::string file;
    for (std::size_t j = 0; j < 2; ++j) {
      const std::size_t k = i + 7 * j;
      file += "gen=" + std::string(graphs[k % std::size(graphs)]) +
              " algo=" + algos[k % std::size(algos)] +
              " gseed=" + std::to_string(k + 1) + " seeds=" +
              std::to_string(k + 1) + ":2 maxw=64 eps=0.5 name=w" +
              std::to_string(i) + "-" + std::to_string(j) + "\n";
    }
    files.push_back(std::move(file));
  }
  // mwm-lr-det's Linial phase sends 13-bit colors where congest:1 allows
  // 8 bits on this graph.
  files[kThrowingJobFile] =
      "gen=gnp:120:0.05 gseed=3 algo=mwm-lr-det policy=congest:1 seeds=1:2 "
      "name=violates\n" +
      files[kThrowingJobFile];
  return files;
}

}  // namespace distapx::test
