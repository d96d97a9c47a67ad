// The algorithm registry: every runnable Table-1 algorithm, written once.
//
// Each entry pairs a job-file name (`algo=NAME`, the CLI's first argument)
// with its paper reference and its run adapter. Job validation
// (job_spec.hpp), the batch server's per-seed execution, the CLI single
// run and its usage text all read this one table, so adding or changing
// an algorithm is an edit here and nowhere else.
//
// Adapters reduce one (job, seed) execution to a RunRow. Single-program
// algorithms reuse the worker's leased Network; multi-phase pipelines run
// their own internal networks (their internal bandwidth policies match
// the paper's analysis, so the job's policy applies only to leased runs).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/batch_server.hpp"

namespace distapx::service {

/// What one run knows beyond its RunRow, collected only on request (the
/// CLI single run); the batch path passes null and pays nothing.
struct RunDetail {
  /// The solution: IS node ids or matching edge ids.
  std::vector<std::uint32_t> solution;
  /// Algorithm-specific facts, in print order: colors, super-rounds,
  /// rounds_parallel, stages, ...
  std::vector<std::pair<std::string, std::uint64_t>> facts;
};

struct Algorithm {
  std::string_view name;
  std::string_view paper_ref;  ///< one line, e.g. "... (Thm 2.3)"
  RunRow (*run)(const ResolvedJob& job, NetworkLease& lease,
                std::uint64_t seed, RunDetail* detail);
};

/// Every entry, in the order usage text and scripts list them.
std::span<const Algorithm> algorithms();

/// The entry called `name`, or nullptr.
const Algorithm* find_algorithm(std::string_view name);

}  // namespace distapx::service
