// Job descriptions for the batch-serving subsystem.
//
// A JobSpec names one (graph source, algorithm, seed range, bandwidth
// policy) workload: "run mcm-2eps on gnp:500:0.01 for seeds 1..32 under
// congest:32". The batch server (batch_server.hpp) shards an arbitrary mix
// of such jobs into per-seed work units over one shared worker pool.
//
// Job files are line-oriented so they stay diffable and shell-composable:
// one job per line, '#' comments, whitespace-separated key=value tokens.
//
//   # key            meaning                                    default
//   gen=SPEC         generator spec (graph/genspec.hpp)         — one of
//   file=PATH        edge-list file (graph/io.hpp)                gen/file
//   algo=NAME        registry name (service/algorithms.cpp)     required
//   seeds=F:C        run seeds F, F+1, ..., F+C-1               1:1
//   seeds=C          shorthand for 1:C
//   name=ID          label used in reports                      job<index>
//   gseed=S          graph-generation + weight RNG seed         1
//   policy=P         congest[:MULT] | local, every phase        congest:32
//   eps=E            epsilon for the (2+-eps)/(1+eps) algos     0.25
//   maxw=W           random weights drawn from [1, W]           100
//   rounds=R         cap on a row's total rounds                2^20
//
// A run cut by rounds= is still a row: completed=0, with what it spent
// and found so far.
//
// Example:
//   gen=gnp:400:0.02      algo=luby      seeds=1:16
//   gen=regular:256:6     algo=maxis-alg2 seeds=1:8  maxw=1024
//   file=web.graph        algo=mwm-lr    seeds=7:4  name=web-mwm
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"

namespace distapx::service {

/// Thrown on a malformed job line / job file (unknown key, bad value,
/// missing required key). The message carries the 1-based line number.
class JobError final : public std::runtime_error {
 public:
  explicit JobError(const std::string& what) : std::runtime_error(what) {}
};

struct JobSpec {
  std::string name;        ///< report label; parse_job_file defaults job<i>
  std::string gen_spec;    ///< generator spec; empty iff graph_file is set
  std::string graph_file;  ///< edge-list path; empty iff gen_spec is set
  std::string algorithm;   ///< a registry name (service/algorithms.hpp)
  std::uint64_t first_seed = 1;
  std::uint32_t num_seeds = 1;
  /// Seeds graph generation and weight sampling (NOT the runs): two jobs
  /// with the same source + gseed share an identical workload.
  std::uint64_t graph_seed = 1;
  sim::BandwidthPolicy policy = sim::BandwidthPolicy::congest(32);
  double eps = 0.25;
  Weight max_w = 100;
  std::uint32_t max_rounds = 1u << 20;

  /// Seed of run index `i` (i < num_seeds).
  [[nodiscard]] std::uint64_t seed_at(std::uint32_t i) const {
    return first_seed + i;
  }

  /// The run contract of the run with seed `seed`: every phase of the
  /// algorithm runs under `policy`, and the phases share `max_rounds`.
  [[nodiscard]] sim::RunOptions run_options(std::uint64_t seed) const {
    sim::RunOptions opts;
    opts.policy = policy;
    opts.max_rounds = max_rounds;
    opts.seed = seed;
    return opts;
  }
};

struct Algorithm;  // service/algorithms.hpp

/// Checks what every job needs regardless of how it was written — a
/// registered algorithm, exactly one graph source, eps > 0, maxw > 0, at
/// least one seed — and returns the algorithm's registry entry. Throws
/// JobError. Both parse_job_line and BatchServer::submit call it, so a spec
/// built in code (the CLI single run) fails the same way a job-file line
/// does.
const Algorithm& validate_job_spec(const JobSpec& spec);

/// Parses one job line (no comment handling). Throws JobError.
JobSpec parse_job_line(const std::string& line);

/// Parses a whole job file: skips blank lines and '#' comments, assigns
/// default names job0, job1, ... by position. Throws JobError with the
/// offending line number.
std::vector<JobSpec> parse_job_file(std::istream& is);

/// File-path convenience (throws JobError if the file cannot be opened).
std::vector<JobSpec> load_job_file(const std::string& path);

}  // namespace distapx::service
