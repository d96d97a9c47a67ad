// Sharded multi-graph batch serving.
//
// This subsystem serves an arbitrary *mix* of jobs — different graphs,
// different algorithms, different seed ranges — over one shared set of
// workers. Every job is sharded into per-seed work units that run on the
// sim::for_each_index fork/join (sim/run_many.hpp), with the calling thread
// as one of the workers; workers pull units from one global queue, so a
// long job's tail does not idle the threads that finished a short job (the
// win bench_batch_serving measures).
//
// Each worker owns one reusable sim::Network through a NetworkLease and
// rebinds it only when the unit it picked up belongs to a different graph
// than the previous one — serving heterogeneous jobs back-to-back settles
// into zero allocation once the largest graph in the mix has been seen.
//
// Determinism contract (tested by test_batch_server.cpp): RunRow i of job
// j depends only on (spec_j, seed) — never on the thread count, on
// scheduling order, or on what other jobs share the pool — and equals what
// a sequential per-job run would produce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/job_spec.hpp"
#include "sim/network.hpp"
#include "support/fingerprint.hpp"
#include "support/metrics.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace distapx::service {

/// One (job, seed) execution, reduced to a uniform row.
struct RunRow {
  std::uint64_t seed = 0;
  std::uint32_t rounds = 0;        ///< simulator rounds (summed over phases)
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint32_t max_edge_bits = 0;
  bool completed = false;
  std::uint64_t solution_size = 0;  ///< |IS| or |matching|
  Weight objective = 0;             ///< weighted value (= size if unweighted)

  friend bool operator==(const RunRow&, const RunRow&) = default;
};

/// The workload facts a summary row reports. Cache entries carry them next
/// to their RunRow (result_cache.hpp), so a job served entirely from hits
/// reports them without building its graph.
struct GraphFacts {
  NodeId n = 0;
  EdgeId m = 0;
  std::uint32_t max_degree = 0;

  friend bool operator==(const GraphFacts&, const GraphFacts&) = default;
};

struct RunDetail;  // service/algorithms.hpp

/// A validated JobSpec and, once materialized, its workload: the graph is
/// generated or loaded once (deterministically from spec.graph_seed) and
/// weights are sampled once. Per-seed execution runs the registry entry
/// looked up at resolution (service/algorithms.hpp).
struct ResolvedJob {
  JobSpec spec;
  const Algorithm* algorithm = nullptr;  ///< the entry for spec.algorithm
  /// Per-job result-cache key prefix (job_fingerprinter, result_cache.hpp)
  /// — per-seed keys absorb just the seed instead of re-canonicalizing the
  /// spec on every unit.
  Fingerprinter cache_key_prefix;
  /// n, m and Δ: from the built graph, or from the cache entries of a job
  /// that was served without building it.
  GraphFacts facts;
  bool materialized = false;  ///< graph and weights below are built
  Graph graph;
  NodeWeights node_weights;
  EdgeWeights edge_weights;
};

/// Validates (validate_job_spec) and materializes a spec. Throws JobError
/// on an invalid spec before any graph is built, gen::SpecError /
/// EnsureError on a malformed generator spec or unreadable graph file.
ResolvedJob resolve_job(JobSpec spec);

/// Per-worker cache of one reusable Network, rebound lazily as the worker
/// serves work units from different jobs.
class NetworkLease {
 public:
  sim::Network& acquire(const Graph& g) {
    if (bound_ != &g) {
      net_.rebind(g);
      bound_ = &g;
    }
    return net_;
  }

 private:
  sim::Network net_;
  const Graph* bound_ = nullptr;
};

struct JobResult {
  std::string name;
  std::string algorithm;
  std::string source;  ///< gen spec or file path
  NodeId n = 0;
  EdgeId m = 0;
  std::uint32_t max_degree = 0;
  std::vector<RunRow> rows;  ///< indexed like the job's seed range

  // Aggregates over rows (folded in seed order — deterministic):
  double mean_rounds = 0;
  double mean_messages = 0;
  double mean_bits = 0;
  double mean_objective = 0;
  Weight min_objective = 0;
  Weight max_objective = 0;
  bool all_completed = true;
};

struct BatchResult {
  std::vector<JobResult> jobs;  ///< in submission order
  std::uint64_t total_runs = 0;
  std::uint64_t cache_hits = 0;  ///< runs served from the result cache
  std::uint64_t computed = 0;    ///< runs actually executed
  /// Jobs whose workload (graph + weights) was built for this batch. With
  /// a cache attached, only jobs with at least one missed seed are built.
  std::uint64_t materialized = 0;
  /// Workers that ran: resolve_threads(threads, units), or fewer when the
  /// process could not spawn them all.
  unsigned threads_used = 0;
  double wall_seconds = 0;  ///< timing only; excluded from determinism
};

class ResultCache;  // service/result_cache.hpp

struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency (clamped to the unit count).
  unsigned threads = 0;
  /// Optional result cache: hits skip execution, misses are computed and
  /// filled. Rows are bit-identical either way (the cache stores the full
  /// RunRow keyed on everything it depends on — see result_cache.hpp).
  /// With a cache, resolution is key-first: submit() only validates, and
  /// serve() builds a job's workload only when one of its seeds misses, so
  /// a fully cached job never generates or opens its graph.
  /// Open the cache with a byte budget (ResultCache's second constructor
  /// argument, the CLI's --cache-budget) to keep it LRU-bounded while
  /// serving. Not owned; must outlive serve().
  ResultCache* cache = nullptr;
  /// Metrics destination: per-algorithm run_latency_ms histograms and the
  /// runs_total / runs_computed_total / jobs_materialized_total counters.
  /// Null = metrics are dropped (pure batch CLI runs pay nothing); the
  /// serving tiers pass their process registry. Not owned; must outlive
  /// serve().
  metrics::Registry* registry = nullptr;
  /// Span destination: each (job, seed) unit records cache-lookup /
  /// compute / cache-store child spans, and each job built during serve() a
  /// materialize span, under `trace_parent` (the caller's open span — the
  /// socket lane's lane-execute, the daemon's file span).
  /// Null = no tracing. Not owned; must outlive serve(). The collector is
  /// thread-safe, so all workers share it.
  trace::Collector* trace = nullptr;
  std::uint32_t trace_parent = 0;
  /// Optional sink for the computed run's RunDetail (solution ids and
  /// algorithm-specific facts). Only for a batch of exactly one (job,
  /// seed) unit — the CLI single run. Not owned; must outlive serve().
  RunDetail* detail = nullptr;
};

/// Shards submitted jobs into per-seed work units and serves them over one
/// shared worker pool.
class BatchServer {
 public:
  explicit BatchServer(BatchOptions opts = {}) : opts_(opts) {}

  /// Validates and enqueues a job; returns its index. Without a cache the
  /// workload is materialized here too. Throws on a spec that cannot be
  /// resolved (nothing is partially enqueued); with a cache, an unreadable
  /// graph file only fails serve(), and only if one of its seeds misses.
  std::size_t submit(JobSpec spec);

  /// Convenience: submit every job of a parsed file.
  void submit_all(const std::vector<JobSpec>& specs);

  [[nodiscard]] std::size_t num_jobs() const noexcept { return jobs_.size(); }
  [[nodiscard]] const ResolvedJob& job(std::size_t i) const {
    return jobs_.at(i);
  }

  /// Runs every remaining (job, seed) unit to completion and returns the
  /// structured results. With a cache, each unit looks up its key first;
  /// the first miss of a job materializes that job (once, in the pool).
  /// Rethrows the first per-run exception after the pool drains. May be
  /// called once per submitted batch; jobs stay submitted, so a second
  /// serve() re-runs the same batch.
  BatchResult serve();

 private:
  BatchOptions opts_;
  std::vector<ResolvedJob> jobs_;
  std::uint64_t built_at_submit_ = 0;  ///< not yet counted by a serve()
};

// ---- report emission (console / CSV / JSON via support/table) ------------

/// One row per job: aggregates.
Table summary_table(const BatchResult& r);

/// One row per run: the raw RunRows (the determinism witness).
Table runs_table(const BatchResult& r);

}  // namespace distapx::service
