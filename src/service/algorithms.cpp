#include "service/algorithms.hpp"

#include <algorithm>

#include "graph/algos.hpp"
#include "matching/lr_matching.hpp"
#include "matching/lr_matching_det.hpp"
#include "matching/mcm_congest.hpp"
#include "matching/nmm_2eps.hpp"
#include "matching/proposal.hpp"
#include "matching/weighted_2eps.hpp"
#include "maxis/coloring_maxis.hpp"
#include "maxis/layered_maxis.hpp"
#include "mis/ghaffari_nmis.hpp"
#include "mis/luby.hpp"

namespace distapx::service {

namespace {

RunRow row_from(const sim::RunMetrics& m, std::uint64_t seed) {
  RunRow row;
  row.seed = seed;
  row.rounds = m.rounds;
  row.messages = m.messages;
  row.total_bits = m.total_bits;
  row.max_edge_bits = m.max_edge_bits;
  row.completed = m.completed;
  return row;
}

/// Runs a single-program IS algorithm on the worker's leased Network and
/// scores the IS against `score_weights` (nullptr = cardinality).
RunRow run_is_program(const ResolvedJob& job, NetworkLease& lease,
                      const sim::RunOptions& opts,
                      const sim::ProgramFactory& factory,
                      const NodeWeights* score_weights, RunDetail* detail) {
  auto& net = lease.acquire(job.graph);
  const auto r = net.run(factory, opts);
  RunRow row = row_from(r.metrics, opts.seed);
  std::uint64_t undecided = 0;
  for (NodeId v = 0; v < job.graph.num_nodes(); ++v) {
    if (r.outputs[v] == kOutInIs) {
      ++row.solution_size;
      row.objective += score_weights ? (*score_weights)[v] : 1;
      if (detail) detail->solution.push_back(v);
    } else if (r.outputs[v] == kOutUndecided) {
      ++undecided;
    }
  }
  if (detail) detail->facts = {{"undecided", undecided}};
  return row;
}

RunRow matching_row(const std::vector<EdgeId>& matching,
                    const EdgeWeights* score_weights, RunRow row,
                    RunDetail* detail) {
  row.solution_size = matching.size();
  row.objective = score_weights
                      ? matching_weight(*score_weights, matching)
                      : static_cast<Weight>(matching.size());
  if (detail) detail->solution = matching;
  return row;
}

constexpr Algorithm kAlgorithms[] = {
    {"luby", "Luby's MIS",
     [](const ResolvedJob& job, NetworkLease& lease,
        const sim::RunOptions& opts, RunDetail* detail) {
       return run_is_program(job, lease, opts, make_luby_program(job.graph),
                             nullptr, detail);
     }},
    {"nmis", "nearly-maximal IS (Sec 3.1)",
     [](const ResolvedJob& job, NetworkLease& lease,
        const sim::RunOptions& opts, RunDetail* detail) {
       return run_is_program(job, lease, opts,
                             make_nmis_program(job.graph, NmisParams{}),
                             nullptr, detail);
     }},
    {"maxis-alg2", "Δ-approx weighted MaxIS, randomized (Thm 2.3)",
     [](const ResolvedJob& job, NetworkLease& lease,
        const sim::RunOptions& opts, RunDetail* detail) {
       const Weight max_w =
           job.node_weights.empty()
               ? 1
               : *std::max_element(job.node_weights.begin(),
                                   job.node_weights.end());
       return run_is_program(
           job, lease, opts,
           make_layered_maxis_program(job.graph, job.node_weights, max_w),
           &job.node_weights, detail);
     }},
    {"maxis-alg3", "Δ-approx weighted MaxIS, deterministic (Sec 2.3)",
     [](const ResolvedJob& job, NetworkLease&, const sim::RunOptions& opts,
        RunDetail* detail) {
       const auto r = run_coloring_maxis(job.graph, job.node_weights,
                                         ColoringSource::kLinial, opts);
       sim::RunMetrics m = r.coloring_metrics;
       RunRow row = row_from(sim::accumulate(m, r.maxis_metrics), opts.seed);
       row.solution_size = r.independent_set.size();
       row.objective = set_weight(job.node_weights, r.independent_set);
       if (detail) {
         detail->solution = r.independent_set;
         detail->facts = {{"colors", r.num_colors}};
       }
       return row;
     }},
    {"mwm-lr", "2-approx MWM, randomized (Thm 2.10)",
     [](const ResolvedJob& job, NetworkLease&, const sim::RunOptions& opts,
        RunDetail* detail) {
       const auto r = run_lr_matching(job.graph, job.edge_weights, opts);
       return matching_row(r.matching, &job.edge_weights,
                           row_from(r.metrics, opts.seed), detail);
     }},
    {"mwm-lr-det", "2-approx MWM, deterministic (Thm 2.10)",
     [](const ResolvedJob& job, NetworkLease&, const sim::RunOptions& opts,
        RunDetail* detail) {
       const auto r =
           run_lr_matching_deterministic(job.graph, job.edge_weights, opts);
       sim::RunMetrics m = r.coloring_metrics;
       RunRow row =
           row_from(sim::accumulate(m, r.matching_metrics), opts.seed);
       if (detail) detail->facts = {{"colors", r.num_colors}};
       return matching_row(r.matching, &job.edge_weights, row, detail);
     }},
    {"mcm-2eps", "(2+ε)-approx MCM (Thm 3.2)",
     [](const ResolvedJob& job, NetworkLease&, const sim::RunOptions& opts,
        RunDetail* detail) {
       Nmm2EpsParams p;
       p.epsilon = job.spec.eps;
       const auto r = run_nmm_2eps_matching(job.graph, opts, p);
       if (detail) {
         detail->facts = {{"super_rounds", r.super_rounds},
                          {"undecided_edges", r.undecided_edges.size()}};
       }
       return matching_row(r.matching, nullptr,
                           row_from(r.metrics, opts.seed), detail);
     }},
    {"mwm-2eps", "(2+ε)-approx MWM (App B.1)",
     [](const ResolvedJob& job, NetworkLease&, const sim::RunOptions& opts,
        RunDetail* detail) {
       Weighted2EpsParams p;
       p.epsilon = job.spec.eps;
       const auto r =
           run_weighted_2eps_matching(job.graph, job.edge_weights, opts, p);
       if (detail) detail->facts = {{"rounds_parallel", r.rounds_parallel}};
       return matching_row(r.matching, &job.edge_weights,
                           row_from(r.metrics, opts.seed), detail);
     }},
    {"mcm-1eps", "(1+ε)-approx MCM (Thm B.12)",
     [](const ResolvedJob& job, NetworkLease&, const sim::RunOptions& opts,
        RunDetail* detail) {
       McmCongestParams p;
       p.epsilon = job.spec.eps;
       const auto r = run_mcm_1eps_congest(job.graph, opts, p);
       RunRow row;
       row.seed = opts.seed;
       row.rounds = r.rounds;
       row.completed = r.completed;
       if (detail) {
         detail->facts = {{"stages", r.stages},
                          {"deactivated", r.deactivated.size()}};
       }
       return matching_row(r.matching, nullptr, row, detail);
     }},
    {"proposal", "(2+ε)-approx MCM via proposals (App B.4)",
     [](const ResolvedJob& job, NetworkLease&, const sim::RunOptions& opts,
        RunDetail* detail) {
       ProposalParams p;
       p.epsilon = job.spec.eps;
       const auto r = run_proposal_matching(job.graph, opts, p);
       return matching_row(r.matching, nullptr,
                           row_from(r.metrics, opts.seed), detail);
     }},
};

}  // namespace

std::span<const Algorithm> algorithms() { return kAlgorithms; }

const Algorithm* find_algorithm(std::string_view name) {
  for (const Algorithm& a : kAlgorithms) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

}  // namespace distapx::service
