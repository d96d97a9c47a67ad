#include "service/batch_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <utility>

#include "graph/generators.hpp"
#include "graph/genspec.hpp"
#include "graph/io.hpp"
#include "service/algorithms.hpp"
#include "service/result_cache.hpp"
#include "sim/run_many.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace distapx::service {

namespace {

/// Validation and the cache key prefix: everything key-first serving needs
/// before it knows whether the workload must be built at all.
ResolvedJob describe_job(JobSpec spec) {
  // Validate before materializing anything: a typo'd algorithm must not
  // cost a multi-million-edge graph generation first.
  const Algorithm& algorithm = validate_job_spec(spec);

  ResolvedJob job;
  job.spec = std::move(spec);
  job.algorithm = &algorithm;
  job.cache_key_prefix = job_fingerprinter(job.spec);
  return job;
}

void materialize_job(ResolvedJob& job) {
  // One RNG stream seeds the generator and then the weights, so a job's
  // workload is a pure function of (source, gseed, maxw).
  Rng rng(hash_combine(job.spec.graph_seed, 0xc11));
  std::optional<EdgeWeights> loaded_ew;
  if (!job.spec.gen_spec.empty()) {
    job.graph = gen::from_spec(job.spec.gen_spec, rng);
  } else {
    auto loaded = io::load_edge_list(job.spec.graph_file);
    job.graph = std::move(loaded.graph);
    loaded_ew = std::move(loaded.edge_weights);
  }
  job.node_weights =
      gen::uniform_node_weights(job.graph.num_nodes(), job.spec.max_w, rng);
  job.edge_weights =
      loaded_ew ? std::move(*loaded_ew)
                : gen::uniform_edge_weights(job.graph.num_edges(),
                                            job.spec.max_w, rng);
  job.facts = {job.graph.num_nodes(), job.graph.num_edges(),
               job.graph.max_degree()};
  job.materialized = true;
}

}  // namespace

ResolvedJob resolve_job(JobSpec spec) {
  ResolvedJob job = describe_job(std::move(spec));
  materialize_job(job);
  return job;
}

std::size_t BatchServer::submit(JobSpec spec) {
  if (spec.name.empty()) spec.name = "job" + std::to_string(jobs_.size());
  if (opts_.cache != nullptr) {
    jobs_.push_back(describe_job(std::move(spec)));
  } else {
    jobs_.push_back(resolve_job(std::move(spec)));
    ++built_at_submit_;
  }
  return jobs_.size() - 1;
}

void BatchServer::submit_all(const std::vector<JobSpec>& specs) {
  for (const JobSpec& spec : specs) submit(spec);
}

BatchResult BatchServer::serve() {
  // Shard: one unit per (job, seed index), flattened in submission order.
  // Workers pull from one global queue, so the pool stays saturated across
  // job boundaries — no per-job fork/join barrier.
  struct Unit {
    std::uint32_t job;
    std::uint32_t run;
  };
  std::vector<Unit> units;
  std::vector<std::vector<RunRow>> rows(jobs_.size());
  // The facts each cache hit carries; per unit, so workers never share a
  // slot. A job that was never built reports them instead of its graph's.
  std::vector<std::vector<GraphFacts>> hit_facts(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const std::uint32_t n_seeds = jobs_[j].spec.num_seeds;
    rows[j].resize(n_seeds);
    hit_facts[j].resize(n_seeds);
    for (std::uint32_t r = 0; r < n_seeds; ++r) {
      units.push_back({static_cast<std::uint32_t>(j), r});
    }
  }

  // A RunDetail describes one run; it has no meaning for a larger batch.
  DISTAPX_ENSURE(opts_.detail == nullptr || units.size() == 1);
  const auto start = std::chrono::steady_clock::now();

  // Metrics land in the caller's registry when one is wired (the serving
  // tiers), or in this throwaway when not (pure batch runs) — either way
  // the hot loop below is branch-free on instrumentation.
  metrics::Registry local_registry;
  metrics::Registry& reg =
      opts_.registry != nullptr ? *opts_.registry : local_registry;
  metrics::Counter& runs_total = reg.counter("runs_total");
  metrics::Counter& runs_computed = reg.counter("runs_computed_total");
  metrics::Counter& jobs_materialized = reg.counter("jobs_materialized_total");
  const std::uint64_t built_eagerly = std::exchange(built_at_submit_, 0);
  jobs_materialized.inc(built_eagerly);
  std::atomic<std::uint64_t> materialized{built_eagerly};
  // Per-job histogram handles resolved once, outside the unit loop: the
  // registry lookup (mutex + map walk) must not sit on the per-seed path.
  std::vector<metrics::Histogram*> job_hist(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    job_hist[j] = &reg.histogram(
        "run_latency_ms{algo=\"" + jobs_[j].spec.algorithm + "\"}",
        metrics::default_latency_buckets_ms());
  }

  std::atomic<std::uint64_t> cache_hits{0};
  // Key-first: a job's workload is built by its first missed unit, once;
  // units of the same job wait for it, other jobs build concurrently.
  std::vector<std::once_flag> built(jobs_.size());
  auto ensure_materialized = [&](std::uint32_t job_index) {
    std::call_once(built[job_index], [&] {
      ResolvedJob& job = jobs_[job_index];
      if (job.materialized) return;  // built by submit() or a prior serve()
      trace::ScopedSpan span("materialize");
      span.annotate("job", job.spec.name);
      materialize_job(job);
      materialized.fetch_add(1, std::memory_order_relaxed);
      jobs_materialized.inc();
    });
  };
  auto timed_dispatch = [&](const ResolvedJob& job, NetworkLease& lease,
                            std::uint64_t seed, std::uint32_t job_index) {
    const auto t0 = std::chrono::steady_clock::now();
    RunRow row = job.algorithm->run(job, lease, job.spec.run_options(seed),
                                    opts_.detail);
    job_hist[job_index]->observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
    runs_computed.inc();
    return row;
  };
  const trace::Context trace_context{opts_.trace, opts_.trace_parent};
  const unsigned workers = sim::for_each_index<NetworkLease>(
      units.size(), opts_.threads, [&](NetworkLease& lease, std::size_t i) {
        // Spawned workers start with no trace context of their own, so the
        // job's collector is installed explicitly for every unit.
        const trace::ContextGuard trace_guard(trace_context);
        const Unit u = units[i];
        const ResolvedJob& job = jobs_[u.job];
        const std::uint64_t seed = job.spec.seed_at(u.run);
        runs_total.inc();
        std::optional<Fingerprint> key;
        if (opts_.cache != nullptr) {
          key = run_fingerprint(job.cache_key_prefix, seed);
          std::optional<CachedRun> cached;
          {
            trace::ScopedSpan span("cache-lookup");
            span.annotate("seed", seed);
            cached = opts_.cache->lookup(*key);
          }
          if (cached) {
            rows[u.job][u.run] = cached->row;
            hit_facts[u.job][u.run] = cached->facts;
            cache_hits.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          ensure_materialized(u.job);
        }
        {
          trace::ScopedSpan span("compute");
          span.annotate("algo", job.spec.algorithm);
          span.annotate("seed", seed);
          rows[u.job][u.run] = timed_dispatch(job, lease, seed, u.job);
        }
        if (key) {
          try {
            trace::ScopedSpan span("cache-store");
            span.annotate("seed", seed);
            opts_.cache->store(*key, rows[u.job][u.run], job.facts);
          } catch (const JobError&) {
            // A fill failure (disk full, unwritable cache dir) degrades
            // this unit to uncached serving; the computed row is already
            // in hand and must not be discarded, let alone fail the
            // batch. The next lookup of this key simply misses again.
          }
        }
      });

  BatchResult result;
  result.cache_hits = cache_hits.load(std::memory_order_relaxed);
  result.materialized = materialized.load(std::memory_order_relaxed);
  result.threads_used = workers;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.jobs.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    ResolvedJob& job = jobs_[j];
    // Every seed of an unbuilt job hit (a miss would have built it), and
    // validation guarantees at least one seed.
    if (!job.materialized) job.facts = hit_facts[j].front();
    JobResult jr;
    jr.name = job.spec.name;
    jr.algorithm = job.spec.algorithm;
    jr.source = !job.spec.gen_spec.empty() ? job.spec.gen_spec
                                           : job.spec.graph_file;
    jr.n = job.facts.n;
    jr.m = job.facts.m;
    jr.max_degree = job.facts.max_degree;
    jr.rows = std::move(rows[j]);

    Summary rounds, messages, bits, objective;
    for (const RunRow& row : jr.rows) {
      rounds.add(static_cast<double>(row.rounds));
      messages.add(static_cast<double>(row.messages));
      bits.add(static_cast<double>(row.total_bits));
      objective.add(static_cast<double>(row.objective));
      jr.all_completed = jr.all_completed && row.completed;
    }
    if (!jr.rows.empty()) {
      jr.mean_rounds = rounds.mean();
      jr.mean_messages = messages.mean();
      jr.mean_bits = bits.mean();
      jr.mean_objective = objective.mean();
      jr.min_objective = jr.rows.front().objective;
      jr.max_objective = jr.rows.front().objective;
      for (const RunRow& row : jr.rows) {
        jr.min_objective = std::min(jr.min_objective, row.objective);
        jr.max_objective = std::max(jr.max_objective, row.objective);
      }
    }
    result.total_runs += jr.rows.size();
    result.jobs.push_back(std::move(jr));
  }
  result.computed = result.total_runs - result.cache_hits;
  return result;
}

Table summary_table(const BatchResult& r) {
  Table t({"job", "algo", "source", "n", "m", "maxdeg", "runs",
           "mean_rounds", "mean_msgs", "mean_bits", "mean_obj", "min_obj",
           "max_obj", "completed"});
  for (const JobResult& j : r.jobs) {
    t.add_row({j.name, j.algorithm, j.source,
               Table::fmt(static_cast<std::uint64_t>(j.n)),
               Table::fmt(static_cast<std::uint64_t>(j.m)),
               Table::fmt(static_cast<std::uint64_t>(j.max_degree)),
               Table::fmt(static_cast<std::uint64_t>(j.rows.size())),
               Table::fmt(j.mean_rounds, 1), Table::fmt(j.mean_messages, 1),
               Table::fmt(j.mean_bits, 1), Table::fmt(j.mean_objective, 1),
               Table::fmt(static_cast<std::int64_t>(j.min_objective)),
               Table::fmt(static_cast<std::int64_t>(j.max_objective)),
               j.all_completed ? "yes" : "NO"});
  }
  return t;
}

Table runs_table(const BatchResult& r) {
  Table t({"job", "algo", "seed", "rounds", "messages", "total_bits",
           "max_edge_bits", "completed", "size", "objective"});
  for (const JobResult& j : r.jobs) {
    for (const RunRow& row : j.rows) {
      t.add_row({j.name, j.algorithm, Table::fmt(row.seed),
                 Table::fmt(static_cast<std::uint64_t>(row.rounds)),
                 Table::fmt(row.messages), Table::fmt(row.total_bits),
                 Table::fmt(static_cast<std::uint64_t>(row.max_edge_bits)),
                 row.completed ? "1" : "0", Table::fmt(row.solution_size),
                 Table::fmt(static_cast<std::int64_t>(row.objective))});
    }
  }
  return t;
}

}  // namespace distapx::service
