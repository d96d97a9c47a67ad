#include "sim/workspace.hpp"

namespace distapx::sim {

Network& Workspace::network(const Graph& g) {
  if (&g != held_ || bound_ != &g) {
    bound_ = nullptr;  // a rebind that throws leaves nothing bound
    net_.rebind(g);
    bound_ = &g;
  }
  return net_;
}

RunResult run_network(const Graph& g, const ProgramFactory& factory,
                      const RunOptions& opts) {
  if (opts.workspace != nullptr) {
    return opts.workspace->network(g).run(factory, opts);
  }
  Workspace local;
  return local.network(g).run(factory, opts);
}

}  // namespace distapx::sim
