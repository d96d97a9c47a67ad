// The algorithm registry: every runnable Table-1 algorithm, written once.
//
// Each entry pairs a job-file name (`algo=NAME`, the CLI's first argument)
// with its paper reference and its run adapter. Job validation
// (job_spec.hpp), the batch server's per-seed execution, the CLI single
// run and its usage text all read this one table, so adding or changing
// an algorithm is an edit here and nowhere else.
//
// Adapters reduce one run, under the job's JobSpec::run_options, to a
// RunRow.
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
  /// Runs in opts.workspace when the caller passes one (the batch
  /// server's worker), else in a local workspace.
  RunRow (*run)(const ResolvedJob& job, const sim::RunOptions& opts,
                RunDetail* detail);
};

/// Every entry, in the order usage text and scripts list them.
std::span<const Algorithm> algorithms();

/// The entry called `name`, or nullptr.
const Algorithm* find_algorithm(std::string_view name);

}  // namespace distapx::service
