// Result-cache serving throughput: cold (compute + fill) vs warm (every
// run served from disk).
//
// The local-ratio algorithms are deterministic functions of (spec, seed),
// so a warm cache replays a whole mixed workload from 105-byte entries —
// the recomputation-avoidance lever the ISSUE names. The contract checked
// here is twofold: warm rows are bit-identical to cold rows (cache hits
// may never change results), and warm serving clears a conservative 5x
// throughput floor over cold serving on the mixed example workload (in
// practice it is far higher — a warm "run" is one open+read+checksum).
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <iostream>

#include "bench_common.hpp"
#include "service/batch_server.hpp"
#include "service/cache_manager.hpp"
#include "service/job_spec.hpp"
#include "service/result_cache.hpp"
#include "support/assert.hpp"
#include "support/fsutil.hpp"

namespace distapx {
namespace {

namespace fs = std::filesystem;

service::JobSpec job(const std::string& name, const std::string& gen,
                     const std::string& algo, std::uint32_t seeds,
                     Weight max_w = 100) {
  service::JobSpec spec;
  spec.name = name;
  spec.gen_spec = gen;
  spec.algorithm = algo;
  spec.first_seed = 1;
  spec.num_seeds = seeds;
  spec.max_w = max_w;
  return spec;
}

/// The bench_batch_serving mixed workload (same shape as
/// examples/jobs_mixed.txt): IS + matching algorithms over heterogeneous
/// families and seed counts.
std::vector<service::JobSpec> workload() {
  return {
      job("gnp-luby", "gnp:600:0.02", "luby", 24),
      job("reg-maxis2", "regular:512:8", "maxis-alg2", 6, 1 << 12),
      job("grid-mcm2eps", "grid:24:24", "mcm-2eps", 12),
      job("tree-mwm", "tree:800", "mwm-lr", 4, 64),
      job("plaw-nmis", "powerlaw:700:2.5:6", "nmis", 16),
      job("bip-proposal", "bipartite:300:300:0.03", "proposal", 8),
      job("cat-maxis2", "caterpillar:120:4", "maxis-alg2", 5, 1 << 10),
      job("cycle-luby", "cycle:2000", "luby", 3),
  };
}

service::BatchResult serve(const std::vector<service::JobSpec>& jobs,
                           unsigned threads, service::ResultCache* cache) {
  service::BatchServer server({threads, cache});
  server.submit_all(jobs);
  return server.serve();
}

void cold_vs_warm() {
  const unsigned threads = bench::default_threads();
  bench::banner(
      "E11: content-addressed result cache, cold vs warm serving",
      "Each RunRow is a pure function of (canonical spec, algorithm, seed, "
      "engine version); a warm cache replays the mixed workload from disk "
      "with bit-identical rows at >= 5x the cold throughput.");

  const auto jobs = workload();
  std::uint64_t total_runs = 0;
  for (const auto& j : jobs) total_runs += j.num_seeds;
  std::cout << jobs.size() << " jobs, " << total_runs << " runs, " << threads
            << " worker threads\n\n";

  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("distapx-bench-cache-" + std::to_string(::getpid()));
  fs::remove_all(cache_dir);

  // Uncached reference + warm-up (first-touch faults, lazy allocations).
  const auto reference = serve(jobs, threads, nullptr);

  service::ResultCache cache(cache_dir.string());
  const int reps = 5;
  double cold_s = 0, warm_best = 0, warm_mean = 0;
  service::BatchResult cold, warm;
  {
    auto result = serve(jobs, threads, &cache);
    cold_s = result.wall_seconds;
    DISTAPX_ENSURE(result.cache_hits == 0);
    DISTAPX_ENSURE(result.computed == total_runs);
    cold = std::move(result);
  }
  for (int r = 0; r < reps; ++r) {
    auto result = serve(jobs, threads, &cache);
    DISTAPX_ENSURE(result.cache_hits == total_runs);
    DISTAPX_ENSURE(result.computed == 0);
    warm_best = r == 0 ? result.wall_seconds
                       : std::min(warm_best, result.wall_seconds);
    warm_mean += result.wall_seconds / reps;
    if (r == 0) warm = std::move(result);
  }

  // Bit-identical rows: uncached == cold-cached == warm-cached.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    DISTAPX_ENSURE(cold.jobs[j].rows == reference.jobs[j].rows);
    DISTAPX_ENSURE(warm.jobs[j].rows == reference.jobs[j].rows);
  }

  Table t({"mode", "wall_s", "runs_per_s", "speedup_vs_cold"});
  t.add_row({"cold (compute+fill)", Table::fmt(cold_s, 4),
             Table::fmt(static_cast<double>(total_runs) / cold_s, 1),
             "1.00"});
  t.add_row({"warm (all hits)", Table::fmt(warm_best, 4),
             Table::fmt(static_cast<double>(total_runs) / warm_best, 1),
             Table::fmt(cold_s / warm_best, 2)});
  t.print(std::cout);
  const auto st = cache.stats();
  std::cout << "\ncache: " << st.stores << " entries filled, " << st.hits
            << " hits over " << reps << " warm reps, " << st.rejected
            << " rejected\n(warm rows verified bit-identical to cold and "
               "uncached serving)\n";

  // The acceptance floor. Warm serving does no simulation at all, so this
  // holds with an order of magnitude to spare on any hardware; a failure
  // means the cache is recomputing (or the fingerprint went unstable).
  DISTAPX_ENSURE(cold_s >= 5.0 * warm_best);
  std::cout << "speedup floor: " << Table::fmt(cold_s / warm_best, 2)
            << "x >= 5x PASS\n";

  fs::remove_all(cache_dir);
}

void warm_thread_scaling() {
  bench::banner(
      "E11b: warm-cache serving across thread counts",
      "Warm rows are bit-identical at every thread count; lookup "
      "throughput scales until the filesystem becomes the bottleneck.");

  const auto jobs = workload();
  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("distapx-bench-cache-t-" + std::to_string(::getpid()));
  fs::remove_all(cache_dir);
  service::ResultCache cache(cache_dir.string());
  (void)serve(jobs, bench::default_threads(), &cache);  // fill

  std::uint64_t total_runs = 0;
  for (const auto& j : jobs) total_runs += j.num_seeds;
  Table t({"threads", "wall_s", "lookups_per_s"});
  std::vector<service::BatchResult> results;
  for (const unsigned threads : {1u, 2u, 4u, bench::default_threads()}) {
    results.push_back(serve(jobs, threads, &cache));
    DISTAPX_ENSURE(results.back().cache_hits == total_runs);
    const double s = results.back().wall_seconds;
    t.add_row({Table::fmt(static_cast<std::uint64_t>(threads)),
               Table::fmt(s, 4),
               Table::fmt(static_cast<double>(total_runs) / s, 1)});
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    for (std::size_t j = 0; j < results[i].jobs.size(); ++j) {
      DISTAPX_ENSURE(results[i].jobs[j].rows == results[0].jobs[j].rows);
    }
  }
  t.print(std::cout);
  std::cout << "\n(warm rows bit-identical across all thread counts)\n";
  fs::remove_all(cache_dir);
}

void budgeted_warm() {
  bench::banner(
      "E11c: warm serving under a byte budget (cache lifecycle)",
      "A budgeted cache LRU-evicts to its byte budget; warm hit rate "
      "degrades with the budget while rows stay bit-identical (evicted "
      "entries recompute and refill).");

  const auto jobs = workload();
  std::uint64_t total_runs = 0;
  for (const auto& j : jobs) total_runs += j.num_seeds;
  const std::uint64_t full_bytes = total_runs * service::entry_file_size();

  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("distapx-bench-cache-b-" + std::to_string(::getpid()));
  fs::remove_all(cache_dir);
  const unsigned threads = bench::default_threads();

  service::ResultCache cache(cache_dir.string());
  const auto reference = serve(jobs, threads, &cache);  // cold fill
  DISTAPX_ENSURE(cache.stats().stores == total_runs);

  Table t({"budget_pct", "budget_bytes", "surviving", "hits", "hit_rate",
           "warm_wall_s"});
  for (const double frac : {1.0, 0.5, 0.25, 0.1}) {
    const auto budget =
        static_cast<std::uint64_t>(static_cast<double>(full_bytes) * frac);
    // Trim to the budget, then serve warm: hits = what survived eviction,
    // misses recompute (and refill, re-exceeding the budget — the steady
    // state a long-lived budgeted daemon cycles through). The serving
    // cache above is unbudgeted (no manager, no journal), so its refills
    // bypass the changelog; rescan() converges with the directory before
    // evicting, as any manager sharing a dir with a foreign writer must.
    service::CacheManager manager(cache_dir.string());
    manager.rescan();
    const auto gc = manager.gc(budget);
    DISTAPX_ENSURE(gc.live_bytes <= budget);

    cache.reset_stats();
    const auto warm = serve(jobs, threads, &cache);
    DISTAPX_ENSURE(warm.cache_hits == gc.live_entries);
    DISTAPX_ENSURE(warm.cache_hits + warm.computed == total_runs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      DISTAPX_ENSURE(warm.jobs[j].rows == reference.jobs[j].rows);
    }
    t.add_row({Table::fmt(100.0 * frac, 0), Table::fmt(budget),
               Table::fmt(gc.live_entries), Table::fmt(warm.cache_hits),
               Table::fmt(static_cast<double>(warm.cache_hits) /
                              static_cast<double>(total_runs),
                          3),
               Table::fmt(warm.wall_seconds, 4)});
  }
  t.print(std::cout);
  std::cout << "\n(rows bit-identical to the uncached reference at every "
               "budget; hits == entries surviving gc)\n";
  fs::remove_all(cache_dir);
}

void snapshot_open() {
  bench::banner(
      "E11d: manifest changelog — snapshot+tail open vs full directory scan",
      "A checkpointed cache opens by replaying the manifest changelog in "
      "O(snapshot + tail) without touching an entry file; only a journal-"
      "less directory pays the recursive scan. The fsync discipline behind "
      "the durability knob is costed per fill.");

  constexpr int kEntries = 1000;
  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("distapx-bench-cache-d-" + std::to_string(::getpid()));
  fs::remove_all(cache_dir);

  const auto fill = [&](const fs::path& dir, int count) {
    // A budgeted cache carries a manager, so every fill is journaled.
    service::ResultCache cache(dir.string(),
                               static_cast<std::uint64_t>(count + 1) *
                                   service::entry_file_size());
    service::JobSpec spec = job("bench-open", "gnp:60:0.08", "luby", 1);
    const service::GraphFacts facts = service::resolve_job(spec).facts;
    for (int i = 0; i < count; ++i) {
      service::RunRow row;
      row.seed = static_cast<std::uint64_t>(i);
      row.rounds = 5;
      row.completed = true;
      cache.store(service::run_fingerprint(spec, row.seed), row, facts);
    }
    cache.manager()->checkpoint();
  };

  // Fill under each durability level, costing the fsync discipline.
  Table fsync_t({"durability", "fill_wall_s", "fsyncs", "fsyncs_per_fill"});
  for (const auto mode :
       {fsutil::Durability::kFull, fsutil::Durability::kNone}) {
    fs::remove_all(cache_dir);
    fsutil::set_durability(mode);
    const std::uint64_t before = fsutil::fsync_total();
    const auto t0 = std::chrono::steady_clock::now();
    fill(cache_dir, kEntries);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::uint64_t syncs = fsutil::fsync_total() - before;
    fsync_t.add_row(
        {mode == fsutil::Durability::kFull ? "full" : "none",
         Table::fmt(secs, 4), Table::fmt(syncs),
         Table::fmt(static_cast<double>(syncs) / kEntries, 2)});
    DISTAPX_ENSURE(mode == fsutil::Durability::kFull ? syncs >= 2 * kEntries
                                                     : syncs == 0);
  }
  fsutil::set_durability(fsutil::Durability::kFull);
  fsync_t.print(std::cout);
  std::cout << "\n";

  // The directory now holds kEntries entries and a checkpointed
  // changelog: opening must replay, not scan — that is the acceptance
  // assertion, with the timing printed alongside.
  double replay_s = 0, scan_s = 0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    service::CacheManager manager(cache_dir.string());
    replay_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    DISTAPX_ENSURE(
        manager.registry().counter("cache_open_replays_total").value() == 1);
    DISTAPX_ENSURE(
        manager.registry().counter("cache_open_scans_total").value() == 0);
    DISTAPX_ENSURE(manager.live_entries() == kEntries);
  }
  // Strip the journal: the open falls back to the full recursive walk
  // (the pre-changelog cost on every open).
  fs::remove(cache_dir / "manifest.log");
  fs::remove(cache_dir / "manifest.snap");
  {
    const auto t0 = std::chrono::steady_clock::now();
    service::CacheManager manager(cache_dir.string());
    scan_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    DISTAPX_ENSURE(
        manager.registry().counter("cache_open_scans_total").value() == 1);
    DISTAPX_ENSURE(manager.live_entries() == kEntries);
  }

  Table t({"open_path", "wall_s", "entries"});
  t.add_row({"replay (snapshot+tail)", Table::fmt(replay_s, 5),
             Table::fmt(static_cast<std::uint64_t>(kEntries))});
  t.add_row({"full directory scan", Table::fmt(scan_s, 5),
             Table::fmt(static_cast<std::uint64_t>(kEntries))});
  t.print(std::cout);
  std::cout << "\n(checkpointed open verified journal-driven by counter: "
               "1 replay, 0 scans on a "
            << kEntries << "-entry directory)\n";
  fs::remove_all(cache_dir);
}

}  // namespace
}  // namespace distapx

int main() {
  distapx::cold_vs_warm();
  distapx::warm_thread_scaling();
  distapx::budgeted_warm();
  distapx::snapshot_open();
  return 0;
}
