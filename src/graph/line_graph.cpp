#include "graph/line_graph.hpp"

#include "support/assert.hpp"

namespace distapx {

LineGraph::LineGraph(const Graph& base) : base_(&base) {
  GraphBuilder b(base.num_edges());
  // Two base edges are adjacent in L(G) iff they share an endpoint: for each
  // base node, connect all pairs of incident edges. Two distinct edges of a
  // simple graph share at most one endpoint, so no pair is added twice.
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    const auto inc = base.neighbors(v);
    for (std::size_t i = 0; i < inc.size(); ++i) {
      for (std::size_t j = i + 1; j < inc.size(); ++j) {
        b.add_edge(static_cast<NodeId>(inc[i].edge),
                   static_cast<NodeId>(inc[j].edge));
      }
    }
  }
  line_ = b.build();
}

std::vector<EdgeId> LineGraph::to_matching(
    const std::vector<NodeId>& line_is) const {
  std::vector<EdgeId> matching;
  matching.reserve(line_is.size());
  for (NodeId ln : line_is) {
    DISTAPX_ENSURE(ln < line_.num_nodes());
    matching.push_back(base_edge(ln));
  }
  return matching;
}

}  // namespace distapx
