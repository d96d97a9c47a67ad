// Batch-serving determinism and job-file coverage (service/).
//
// The contract under test: RunRow i of job j depends only on (spec_j,
// seed) — never on the pool's thread count, on scheduling order, or on
// what other jobs share the pool — and equals what a sequential loop of
// plain sim::Network runs produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <string_view>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mis/luby.hpp"
#include "mis/mis.hpp"
#include "service/algorithms.hpp"
#include "service/batch_server.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "service/result_cache.hpp"
#include "sim/network.hpp"
#include "sim/worker_pool.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/table.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

/// Mixed workload: 4 graph families x 4 algorithms (2 IS, 2 matching).
const char* kMixedJobFile = R"(
# mixed batch workload
gen=gnp:120:0.05      algo=luby        seeds=1:6   name=gnp-luby
gen=regular:96:6      algo=maxis-alg2  seeds=3:4   maxw=512 name=reg-maxis
gen=grid:8:8          algo=mcm-2eps    seeds=1:4   eps=0.3  name=grid-mcm

gen=tree:150          algo=mwm-lr      seeds=2:3   maxw=32  name=tree-mwm
)";

std::vector<service::JobSpec> mixed_jobs() {
  std::istringstream is(kMixedJobFile);
  return service::parse_job_file(is);
}

service::BatchResult serve_mixed(unsigned threads) {
  service::BatchServer server({threads});
  server.submit_all(mixed_jobs());
  return server.serve();
}

void expect_same_rows(const service::BatchResult& a,
                      const service::BatchResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    ASSERT_EQ(a.jobs[j].rows.size(), b.jobs[j].rows.size()) << "job " << j;
    for (std::size_t i = 0; i < a.jobs[j].rows.size(); ++i) {
      EXPECT_EQ(a.jobs[j].rows[i], b.jobs[j].rows[i])
          << a.jobs[j].name << " run " << i;
    }
  }
}

TEST(JobFile, ParsesTheMixedWorkload) {
  const auto jobs = mixed_jobs();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].name, "gnp-luby");
  EXPECT_EQ(jobs[0].algorithm, "luby");
  EXPECT_EQ(jobs[0].gen_spec, "gnp:120:0.05");
  EXPECT_EQ(jobs[0].first_seed, 1u);
  EXPECT_EQ(jobs[0].num_seeds, 6u);
  EXPECT_EQ(jobs[1].max_w, 512);
  EXPECT_EQ(jobs[1].first_seed, 3u);
  EXPECT_DOUBLE_EQ(jobs[2].eps, 0.3);
  EXPECT_EQ(jobs[3].seed_at(2), 4u);
}

TEST(JobFile, KeyForms) {
  auto spec = service::parse_job_line(
      "gen=path:10 algo=luby seeds=12 policy=local rounds=500");
  EXPECT_EQ(spec.first_seed, 1u);
  EXPECT_EQ(spec.num_seeds, 12u);
  EXPECT_FALSE(spec.policy.bounded);
  EXPECT_EQ(spec.max_rounds, 500u);
  EXPECT_TRUE(spec.name.empty());  // parse_job_file assigns job<i> names

  spec = service::parse_job_line(
      "file=some.graph algo=mwm-lr policy=congest:16 gseed=9");
  EXPECT_EQ(spec.graph_file, "some.graph");
  EXPECT_TRUE(spec.policy.bounded);
  EXPECT_EQ(spec.policy.multiplier, 16u);
  EXPECT_EQ(spec.graph_seed, 9u);
}

TEST(JobFile, DefaultNamesArePositional) {
  std::istringstream is(
      "gen=path:10 algo=luby\n"
      "# comment\n"
      "gen=path:12 algo=luby name=why\n"
      "gen=path:14 algo=luby\n");
  const auto jobs = service::parse_job_file(is);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].name, "job0");
  EXPECT_EQ(jobs[1].name, "why");
  EXPECT_EQ(jobs[2].name, "job2");
}

TEST(JobFile, MalformedLinesThrow) {
  const char* bad_lines[] = {
      "gen=path:10",                          // missing algo
      "algo=luby",                            // missing graph source
      "gen=path:10 file=x algo=luby",         // both sources
      "gen=path:10 algo=frobnicate",          // unknown algorithm
      "gen=torus:5:5 algo=luby",              // bad generator family
      "gen=path:ten algo=luby",               // bad generator parameter
      "gen=path:10 algo=luby seeds=0",        // zero runs
      "gen=path:10 algo=luby seeds=1:zz",     // bad seed count
      "gen=path:10 algo=luby policy=quantum", // bad policy
      "gen=path:10 algo=luby eps=-1",         // bad epsilon
      "gen=path:10 algo=luby eps=nan",        // non-finite epsilon
      "gen=path:10 algo=luby maxw=0",         // bad weight bound
      "gen=path:10 algo=luby frobs=3",        // unknown key
      "gen=path:10 algo=luby seeds",          // not key=value
  };
  for (const char* line : bad_lines) {
    EXPECT_THROW(service::parse_job_line(line), service::JobError) << line;
  }
}

TEST(JobFile, ErrorsCarryLineNumbers) {
  std::istringstream is("gen=path:10 algo=luby\n\ngen=path:10 algo=nope\n");
  try {
    service::parse_job_file(is);
    FAIL() << "expected JobError";
  } catch (const service::JobError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// ---- negative paths: the exact line number AND message ---------------------
//
// `batch` and the socket server's ERR frame report a malformed job file
// with this diagnostic and nothing else; operators fix job files from the
// message alone, so the line number and the wording are contract, not
// decoration.

std::string job_file_error(const std::string& content) {
  std::istringstream is(content);
  try {
    service::parse_job_file(is);
  } catch (const service::JobError& e) {
    return e.what();
  }
  return "<no JobError thrown>";
}

TEST(JobFileNegativePaths, ExactLineNumberAndMessage) {
  // (file content, exact diagnostic) pairs. Comments and blank lines
  // deliberately offset the failing line to pin down the numbering.
  const struct {
    const char* content;
    const char* expected;
  } cases[] = {
      {"gen=path:10 algo=luby\nalgo=luby\n",
       "line 2: exactly one of gen= / file= is required"},
      {"\n# header comment\ngen=path:10\n",
       "line 3: missing required key algo="},
      {"gen=path:10 algo=luby seeds=0\n",
       "line 1: seeds=0 requests zero runs"},
      {"gen=path:10 algo=luby\ngen=path:10 algo=luby seeds=1:zz\n",
       "line 2: seeds=zz is not an integer in [0, 16777216]"},
      {"gen=path:10 algo=nope\n", "line 1: unknown algorithm \"nope\""},
      {"# comment\ngen=path:10 algo=luby policy\n",
       "line 2: token \"policy\" is not key=value"},
      {"gen=path:10 algo=luby eps=\n",
       "line 1: empty value for key \"eps\""},
      {"gen=path:10 algo=luby eps=-0.5\n", "line 1: eps must be positive"},
      {"gen=path:10 algo=luby maxw=0\n", "line 1: maxw must be positive"},
      {"gen=path:10 algo=luby frobs=3\n",
       "line 1: unknown key \"frobs\""},
      {"gen=path:10 algo=luby gseed=12x\n",
       "line 1: gseed=12x is not an integer in [0, 18446744073709551615]"},
      {"gen=path:10 algo=luby policy=congest:0\n",
       "line 1: policy=congest:0 has a zero multiplier"},
      {"gen=path:10 algo=luby policy=quantum\n",
       "line 1: policy=quantum (want congest[:MULT] or local)"},
      {"gen=path:10 file=x.graph algo=luby\n",
       "line 1: exactly one of gen= / file= is required"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(job_file_error(c.content), c.expected) << c.content;
  }
}

TEST(JobFileNegativePaths, BadSeedRanges) {
  // Seed-range values out of the documented [0, 2^24] count window.
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby seeds=99999999\n"),
            "line 1: seeds=99999999 is not an integer in [0, 16777216]");
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby seeds=1:99999999\n"),
            "line 1: seeds=99999999 is not an integer in [0, 16777216]");
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby seeds=-3:4\n"),
            "line 1: seeds=-3 is not an integer in [0, "
            "18446744073709551615]");
}

TEST(JobFileNegativePaths, NonFiniteAndHexFloatValuesAreRejected) {
  // strtod would happily parse every one of these; the strict-decimal
  // contract turns them into the usual line-numbered diagnostics.
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby eps=inf\n"),
            "line 1: eps=inf is not a finite number");
  EXPECT_EQ(job_file_error("# header\ngen=path:10 algo=mcm-2eps eps=nan\n"),
            "line 2: eps=nan is not a finite number");
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby eps=0x1p3\n"),
            "line 1: eps=0x1p3 is not a finite number");
  EXPECT_EQ(job_file_error("\ngen=path:10 algo=mcm-1eps eps=1e999\n"),
            "line 2: eps=1e999 is not a finite number");
  EXPECT_EQ(job_file_error("gen=path:10 algo=luby eps=infinity\n"),
            "line 1: eps=infinity is not a finite number");
}

TEST(JobFileNegativePaths, EmbeddedGenSpecErrorsKeepLineAndSpecContext) {
  // A bad generator spec inside a job line surfaces the SpecError text
  // (family, parameter index, offending token) behind the line number.
  const std::string unknown = job_file_error(
      "gen=path:10 algo=luby\ngen=torus:5:5 algo=luby\n");
  EXPECT_NE(unknown.find("line 2: bad generator spec \"torus:5:5\""),
            std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find("unknown family \"torus\""), std::string::npos);

  const std::string bad_param =
      job_file_error("gen=path:ten algo=luby\n");
  EXPECT_EQ(bad_param,
            "line 1: bad generator spec \"path:ten\": parameter 1 "
            "(\"ten\") is not an integer in [0, 268435456]");

  const std::string bad_arity = job_file_error("gen=gnp:100 algo=luby\n");
  EXPECT_EQ(bad_arity,
            "line 1: bad generator spec \"gnp:100\": family gnp takes 2 "
            "parameter(s) (gnp:N:P), got 1");
}

TEST(BatchServer, BitIdenticalAcrossThreadCounts) {
  const auto base = serve_mixed(1);
  ASSERT_EQ(base.jobs.size(), 4u);
  for (const auto& job : base.jobs) {
    EXPECT_TRUE(job.all_completed) << job.name;
    for (const auto& row : job.rows) EXPECT_GT(row.solution_size, 0u);
  }
  for (const unsigned threads : {2u, 8u}) {
    expect_same_rows(base, serve_mixed(threads));
  }
}

TEST(BatchServer, PoolSharingDoesNotPerturbJobs) {
  // Each job served alone must produce the same rows as the mixed batch:
  // nothing about pool co-tenancy may leak into results.
  const auto mixed = serve_mixed(4);
  const auto jobs = mixed_jobs();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    service::BatchServer solo({4});
    solo.submit(jobs[j]);
    const auto alone = solo.serve();
    ASSERT_EQ(alone.jobs.size(), 1u);
    ASSERT_EQ(alone.jobs[0].rows.size(), mixed.jobs[j].rows.size());
    for (std::size_t i = 0; i < alone.jobs[0].rows.size(); ++i) {
      EXPECT_EQ(alone.jobs[0].rows[i], mixed.jobs[j].rows[i])
          << jobs[j].name << " run " << i;
    }
  }
}

TEST(BatchServer, SpawnFailureServesOnFewerWorkers) {
  // A SUBMIT that cannot get all its worker threads must still serve
  // every unit, with the same rows, instead of aborting the server.
  if (!test::OneFreeThreadSlot::possible()) {
    GTEST_SKIP() << "cannot lower the thread limit in a child process";
  }
  const char* two_jobs = R"(
gen=gnp:60:0.08   algo=luby        seeds=1:4 name=a
gen=regular:40:4  algo=maxis-alg2  seeds=5:4 maxw=64 name=b
)";
  const auto serve_at = [&](unsigned threads) {
    std::istringstream is(two_jobs);
    service::BatchServer server({threads});
    server.submit_all(service::parse_job_file(is));
    return server.serve();
  };
  const auto serial = serve_at(1);
  ASSERT_EQ(serial.total_runs, 8u);
  ASSERT_EQ(serial.threads_used, 1u);
  EXPECT_EXIT(
      {
        bool ok = false;
        {
          const test::OneFreeThreadSlot one_slot;
          const auto squeezed = serve_at(4);
          // threads_used is not pinned: other processes of this uid may
          // free or take thread slots while the batch spawns.
          ok = squeezed.jobs.size() == serial.jobs.size();
          for (std::size_t j = 0; ok && j < serial.jobs.size(); ++j) {
            ok = squeezed.jobs[j].rows == serial.jobs[j].rows;
          }
        }
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  // Unsqueezed, every requested worker runs.
  EXPECT_EQ(serve_at(4).threads_used, 4u);
}

TEST(BatchServer, MatchesSequentialNetworkRuns) {
  // For a single-program job the batch rows must equal a plain sequential
  // loop of Network runs over the same graph, factory and seeds.
  const auto jobs = mixed_jobs();
  const auto& luby_spec = jobs[0];
  ASSERT_EQ(luby_spec.algorithm, "luby");

  service::BatchServer server({8});
  server.submit_all(jobs);
  const auto batch = server.serve();
  const auto& batch_job = batch.jobs[0];

  const service::ResolvedJob reference = service::resolve_job(luby_spec);
  std::vector<std::uint64_t> seeds;
  for (std::uint32_t i = 0; i < luby_spec.num_seeds; ++i) {
    seeds.push_back(luby_spec.seed_at(i));
  }
  const auto factory = make_luby_program(reference.graph);
  std::vector<sim::RunResult> runs;
  for (const std::uint64_t seed : seeds) {
    sim::RunOptions opts;
    opts.policy = luby_spec.policy;
    opts.max_rounds = luby_spec.max_rounds;
    opts.seed = seed;
    runs.push_back(sim::Network(reference.graph).run(factory, opts));
  }
  ASSERT_EQ(runs.size(), batch_job.rows.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& row = batch_job.rows[i];
    EXPECT_EQ(row.seed, seeds[i]);
    EXPECT_EQ(row.rounds, runs[i].metrics.rounds) << i;
    EXPECT_EQ(row.messages, runs[i].metrics.messages) << i;
    EXPECT_EQ(row.total_bits, runs[i].metrics.total_bits) << i;
    EXPECT_EQ(row.max_edge_bits, runs[i].metrics.max_edge_bits) << i;
    std::uint64_t is_size = 0;
    for (const std::int64_t out : runs[i].outputs) {
      if (out == kOutInIs) ++is_size;
    }
    EXPECT_EQ(row.solution_size, is_size) << i;
    EXPECT_EQ(row.objective, static_cast<Weight>(is_size)) << i;
  }
}

TEST(BatchServer, ResolveRejectsBadSpecs) {
  service::JobSpec bad;
  bad.gen_spec = "gnp:50:0.1";
  bad.algorithm = "frobnicate";
  EXPECT_THROW(service::resolve_job(bad), service::JobError);

  // A spec built in code gets the job-file diagnostics too, instead of
  // reaching an algorithm that cannot handle it.
  const auto resolve_error = [](service::JobSpec spec) -> std::string {
    try {
      service::resolve_job(std::move(spec));
    } catch (const service::JobError& e) {
      return e.what();
    }
    return "<no JobError thrown>";
  };
  service::JobSpec good;
  good.gen_spec = "gnp:50:0.1";
  good.algorithm = "mwm-2eps";
  service::JobSpec zero_eps = good;
  zero_eps.eps = 0;
  EXPECT_EQ(resolve_error(zero_eps), "eps must be positive");
  service::JobSpec zero_maxw = good;
  zero_maxw.max_w = 0;
  EXPECT_EQ(resolve_error(zero_maxw), "maxw must be positive");
  service::JobSpec two_sources = good;
  two_sources.graph_file = "x.graph";
  EXPECT_EQ(resolve_error(two_sources),
            "exactly one of gen= / file= is required");

  service::JobSpec missing_file;
  missing_file.graph_file = "/nonexistent/definitely.graph";
  missing_file.algorithm = "luby";
  EXPECT_THROW(service::resolve_job(missing_file), std::exception);
}

TEST(BatchServer, ReportsAreDeterministic) {
  // The emitted CSV/JSON are part of the determinism contract (wall time
  // deliberately lives outside the tables).
  const auto a = serve_mixed(2);
  const auto b = serve_mixed(8);
  std::ostringstream csv_a, csv_b, json_a, json_b, runs_a, runs_b;
  service::summary_table(a).write_csv(csv_a);
  service::summary_table(b).write_csv(csv_b);
  service::summary_table(a).write_json(json_a);
  service::summary_table(b).write_json(json_b);
  service::runs_table(a).write_csv(runs_a);
  service::runs_table(b).write_csv(runs_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_EQ(runs_a.str(), runs_b.str());
  EXPECT_NE(json_a.str().find("\"job\": \"gnp-luby\""), std::string::npos);

  const std::string runs_csv = runs_a.str();
  const auto n_lines =
      static_cast<std::size_t>(std::count(runs_csv.begin(), runs_csv.end(), '\n'));
  EXPECT_EQ(n_lines, 1u + a.total_runs);  // header + one row per run
}

TEST(BatchServer, ServeTwiceIsIdempotent) {
  service::BatchServer server({4});
  server.submit_all(mixed_jobs());
  const auto first = server.serve();
  const auto second = server.serve();
  expect_same_rows(first, second);
}

// ---- worker workspaces that outlive the request ----------------------------
//
// The workers of a sim::WorkerPool keep one sim::Workspace each across
// requests — a socket server's shared pool, or a batch server's own.
// Graph addresses repeat across requests, so a worker resets its binding
// whenever it takes a unit of another batch; a run that throws leaves its
// workspace reusable. Either way the rows are a fresh server's.

std::string csv_of(const Table& t) {
  std::ostringstream os;
  t.write_csv(os);
  return os.str();
}

std::vector<service::JobSpec> specs_of(const std::string& file) {
  std::istringstream is(file);
  return service::parse_job_file(is);
}

TEST(WorkspaceServing, OneSetServesManyJobFilesLikeFreshServers) {
  sim::WorkerPool pool(2);
  const std::vector<std::string> files = test::workspace_job_files();
  ASSERT_GE(files.size(), 20u);
  std::set<std::string> algos;
  for (std::size_t f = 0; f < files.size(); ++f) {
    SCOPED_TRACE("file " + std::to_string(f));
    const auto specs = specs_of(files[f]);
    service::BatchOptions kept;
    kept.pool = &pool;
    service::BatchServer server(kept);
    server.submit_all(specs);
    service::BatchServer fresh({1});
    fresh.submit_all(specs);
    if (f == test::kThrowingJobFile) {
      EXPECT_THROW(fresh.serve(), EnsureError);
      try {
        server.serve();
        ADD_FAILURE() << "the violating job file served";
      } catch (const EnsureError& e) {
        EXPECT_NE(std::string(e.what()).find("CONGEST violation"),
                  std::string::npos)
            << e.what();
      }
      continue;
    }
    for (const service::JobSpec& spec : specs) algos.insert(spec.algorithm);
    const auto want = fresh.serve();
    const auto got = server.serve();
    expect_same_rows(got, want);
    EXPECT_EQ(csv_of(service::summary_table(got)),
              csv_of(service::summary_table(want)));
  }
  EXPECT_EQ(algos.size(), service::algorithms().size());
}

TEST(WorkspaceServing, ServerKeepsItsOwnSetAcrossServes) {
  // Submitting after a serve() moves every job graph (jobs_ reallocates),
  // so the next serve() must not trust the old bindings.
  service::BatchServer server({2});
  service::BatchServer fresh({1});
  const std::vector<std::string> files = test::workspace_job_files();
  for (std::size_t f = 0; f < 6; ++f) {
    server.submit_all(specs_of(files[f]));
    fresh.submit_all(specs_of(files[f]));
    expect_same_rows(server.serve(), fresh.serve());
  }
}

// ---- key-first resolution with a result cache -------------------------------
//
// With a cache attached, submit() only validates; serve() looks every seed
// up first and builds a job's graph only when one of its seeds misses. A
// fully cached job reports n/m/Δ from its cache entries.

using test::ScopedTempDir;

service::BatchResult serve_cached(const std::vector<service::JobSpec>& jobs,
                                  service::ResultCache& cache,
                                  metrics::Registry* registry = nullptr) {
  service::BatchOptions opts;
  opts.threads = 4;
  opts.cache = &cache;
  opts.registry = registry;
  service::BatchServer server(opts);
  server.submit_all(jobs);
  return server.serve();
}

TEST(KeyFirst, WarmServeBuildsNoGraphAndReportsIdenticalTables) {
  const ScopedTempDir dir("distapx-keyfirst-warm");
  service::ResultCache cache(dir.str());
  const auto uncached = serve_mixed(4);
  EXPECT_EQ(uncached.materialized, 4u);  // eager: every job, at submit

  const auto cold = serve_cached(mixed_jobs(), cache);
  EXPECT_EQ(cold.materialized, 4u);
  EXPECT_EQ(cold.computed, cold.total_runs);

  metrics::Registry registry;
  const auto warm = serve_cached(mixed_jobs(), cache, &registry);
  EXPECT_EQ(warm.materialized, 0u);
  EXPECT_EQ(warm.cache_hits, warm.total_runs);
  EXPECT_EQ(registry.counter("jobs_materialized_total").value(), 0u);

  // Byte-identical tables, n/m/maxdeg included, cold and warm.
  for (const auto* r : {&cold, &warm}) {
    EXPECT_EQ(csv_of(service::summary_table(*r)),
              csv_of(service::summary_table(uncached)));
    EXPECT_EQ(csv_of(service::runs_table(*r)),
              csv_of(service::runs_table(uncached)));
  }
  EXPECT_GT(warm.jobs[0].n, 0u);
  EXPECT_GT(warm.jobs[0].m, 0u);
}

TEST(KeyFirst, MixedHitsAndMissesBuildOnceAndComputeOnlyTheMisses) {
  const ScopedTempDir dir("distapx-keyfirst-mixed");
  service::ResultCache cache(dir.str());
  auto spec = mixed_jobs()[1];  // maxis-alg2: weights matter
  spec.num_seeds = 2;
  (void)serve_cached({spec}, cache);  // fills seeds 3 and 4

  spec.num_seeds = 6;  // seeds 3..8: two hits, four misses
  metrics::Registry registry;
  const auto mixed = serve_cached({spec}, cache, &registry);
  EXPECT_EQ(mixed.cache_hits, 2u);
  EXPECT_EQ(mixed.computed, 4u);
  EXPECT_EQ(mixed.materialized, 1u);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("jobs_materialized_total"), 1u);
  EXPECT_EQ(snap.counter_or("runs_computed_total"), 4u);

  service::BatchServer plain({4});
  plain.submit(spec);
  const auto uncached = plain.serve();
  EXPECT_EQ(mixed.jobs[0].rows, uncached.jobs[0].rows);
  EXPECT_EQ(csv_of(service::summary_table(mixed)),
            csv_of(service::summary_table(uncached)));
}

TEST(KeyFirst, SecondServeOnTheSameServerReRunsTheBatch) {
  const ScopedTempDir dir("distapx-keyfirst-twice");
  service::ResultCache cache(dir.str());
  service::BatchOptions opts;
  opts.threads = 4;
  opts.cache = &cache;
  service::BatchServer server(opts);
  server.submit_all(mixed_jobs());
  const auto first = server.serve();
  const auto second = server.serve();
  EXPECT_EQ(first.computed, first.total_runs);
  EXPECT_EQ(first.materialized, 4u);
  EXPECT_EQ(second.total_runs, first.total_runs);
  EXPECT_EQ(second.cache_hits, second.total_runs);
  EXPECT_EQ(second.materialized, 0u);
  expect_same_rows(first, second);
  EXPECT_EQ(csv_of(service::summary_table(first)),
            csv_of(service::summary_table(second)));
}

TEST(KeyFirst, WithoutACacheSubmitOnlyValidatesAndServeBuildsEachJobOnce) {
  service::BatchServer server({4});
  server.submit_all(mixed_jobs());
  for (std::size_t j = 0; j < server.num_jobs(); ++j) {
    EXPECT_FALSE(server.job(j).materialized) << j;
  }
  // A generator spec that cannot be built still fails submit().
  service::JobSpec bad = mixed_jobs()[0];
  bad.gen_spec = "gnp:many:0.1";
  EXPECT_THROW(server.submit(bad), std::exception);
  ASSERT_EQ(server.num_jobs(), 4u);

  const auto first = server.serve();
  EXPECT_EQ(first.materialized, 4u);
  for (std::size_t j = 0; j < server.num_jobs(); ++j) {
    EXPECT_TRUE(server.job(j).materialized) << j;
  }
  EXPECT_EQ(server.serve().materialized, 0u);  // built once per server
  expect_same_rows(first, serve_mixed(1));
}

/// A job over a graph file that the test deletes between serves.
class KeyFirstGraphFile : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::create_directories(dir_.path);
    Rng rng(5);
    io::save_edge_list(graph_path_, gen::gnp(80, 0.06, rng));
    spec_.name = "file-luby";
    spec_.graph_file = graph_path_;
    spec_.algorithm = "luby";
    spec_.num_seeds = 3;
  }

  ScopedTempDir dir_{"distapx-keyfirst-file"};
  std::string graph_path_ = (dir_.path / "g.graph").string();
  service::JobSpec spec_;
};

TEST_F(KeyFirstGraphFile, WithoutACacheAMissingFileFailsSubmit) {
  std::filesystem::remove(graph_path_);
  service::BatchServer server({2});
  EXPECT_THROW(server.submit(spec_), std::exception);
  EXPECT_EQ(server.num_jobs(), 0u);
}

TEST_F(KeyFirstGraphFile, AllHitsNeverOpenTheGraphFile) {
  service::ResultCache cache((dir_.path / "cache").string());
  const auto cold = serve_cached({spec_}, cache);
  ASSERT_EQ(cold.materialized, 1u);
  // Graph files are immutable by contract (keyed on path); a fully cached
  // job must not even notice that this one is gone.
  std::filesystem::remove(graph_path_);
  const auto warm = serve_cached({spec_}, cache);
  EXPECT_EQ(warm.materialized, 0u);
  EXPECT_EQ(warm.cache_hits, 3u);
  EXPECT_EQ(csv_of(service::summary_table(warm)),
            csv_of(service::summary_table(cold)));
  EXPECT_EQ(csv_of(service::runs_table(warm)),
            csv_of(service::runs_table(cold)));
}

TEST_F(KeyFirstGraphFile, OneMissWithAMissingFileFailsServe) {
  service::ResultCache cache((dir_.path / "cache").string());
  spec_.num_seeds = 2;
  (void)serve_cached({spec_}, cache);
  std::filesystem::remove(graph_path_);
  spec_.num_seeds = 3;  // seed 3 misses and needs the graph
  service::BatchOptions opts;
  opts.cache = &cache;
  service::BatchServer server(opts);
  EXPECT_NO_THROW(server.submit(spec_));
  EXPECT_THROW(server.serve(), std::exception);
}

// ---- the shared report sink --------------------------------------------------

/// True when `report` holds `line` as a whole line.
bool has_line(const std::string& report, const std::string& line) {
  return ("\n" + report).find("\n" + line + "\n") != std::string::npos;
}

TEST(ReportSink, RenderMatchesTheBatchTablesByteForByte) {
  // The socket tier's RESULT sections come out of render_result; its
  // CSVs must be exactly what `distapx_cli batch` writes.
  const auto result = serve_mixed(3);
  const auto rendered = service::render_result("mixed.txt", result);
  EXPECT_EQ(rendered.summary_csv, csv_of(service::summary_table(result)));
  EXPECT_EQ(rendered.runs_csv, csv_of(service::runs_table(result)));
  EXPECT_EQ(rendered.report_txt.rfind("job_file mixed.txt\n", 0), 0u)
      << rendered.report_txt;
  for (const char* line :
       {"jobs 4", "runs 17", "served_from_cache 0", "computed 17",
        "hit_rate 0.0000"}) {
    EXPECT_TRUE(has_line(rendered.report_txt, line))
        << line << "\n" << rendered.report_txt;
  }
  EXPECT_NE(rendered.report_txt.find("\nwall_seconds "), std::string::npos);
}

TEST(ReportSink, WarmRenderCountsEveryRunAsServedFromTheCache) {
  const ScopedTempDir dir("distapx-sink-warm");
  service::ResultCache cache(dir.str());
  const auto cold = service::render_result(
      "cold", serve_cached(mixed_jobs(), cache));
  const auto warm = service::render_result(
      "warm", serve_cached(mixed_jobs(), cache));
  EXPECT_EQ(warm.summary_csv, cold.summary_csv);
  EXPECT_EQ(warm.runs_csv, cold.runs_csv);
  for (const char* line :
       {"runs 17", "served_from_cache 17", "computed 0", "hit_rate 1.0000"}) {
    EXPECT_TRUE(has_line(warm.report_txt, line))
        << line << "\n" << warm.report_txt;
  }
  EXPECT_TRUE(has_line(cold.report_txt, "computed 17")) << cold.report_txt;
}

TEST(ReportSink, EmptyResultRendersHeadersAndAZeroHitRate) {
  const service::BatchResult empty;
  const auto rendered = service::render_result("empty", empty);
  EXPECT_EQ(rendered.summary_csv, csv_of(service::summary_table(empty)));
  EXPECT_EQ(rendered.runs_csv, csv_of(service::runs_table(empty)));
  // Header line only.
  EXPECT_EQ(std::count(rendered.runs_csv.begin(), rendered.runs_csv.end(),
                       '\n'),
            1);
  for (const char* line :
       {"jobs 0", "runs 0", "served_from_cache 0", "computed 0",
        "hit_rate 0.0000"}) {
    EXPECT_TRUE(has_line(rendered.report_txt, line))
        << line << "\n" << rendered.report_txt;
  }
}

// ---- the algorithm registry -------------------------------------------------

service::JobSpec registry_spec(std::string_view algo, std::uint32_t seeds,
                               const std::string& extra_keys = "") {
  return service::parse_job_line("gen=gnp:120:0.05 gseed=3 seeds=3:" +
                                 std::to_string(seeds) + " algo=" +
                                 std::string(algo) + " " + extra_keys);
}

TEST(AlgorithmRegistry, NamesKeepTheirPublishedOrder) {
  // Usage text and scripts list the algorithms in this order.
  const std::vector<std::string_view> expected = {
      "luby",     "nmis",     "maxis-alg2", "maxis-alg3", "mwm-lr",
      "mwm-lr-det", "mcm-2eps", "mwm-2eps", "mcm-1eps",   "proposal"};
  std::vector<std::string_view> names;
  for (const service::Algorithm& a : service::algorithms()) {
    names.push_back(a.name);
    EXPECT_EQ(service::find_algorithm(a.name), &a);
    EXPECT_FALSE(a.paper_ref.empty()) << a.name;
  }
  EXPECT_EQ(names, expected);
  EXPECT_EQ(service::find_algorithm("frobnicate"), nullptr);
}

TEST(AlgorithmRegistry, EveryEntryServesItsGoldenRowsAndDetail) {
  // Rows captured before the registry replaced the per-algorithm dispatch
  // (gnp:120:0.05, gseed=3, seeds 3 and 4); maxis-alg3 and mwm-lr-det
  // re-captured when their coloring gained the additive-group stage
  // (engine version 8). Columns: seed, rounds, messages, total_bits,
  // max_edge_bits, completed, size, objective. The facts are what the
  // single run printed for seed 3 at the same commit.
  using Facts = std::vector<std::pair<std::string, std::uint64_t>>;
  const struct {
    std::string_view algo;
    service::RunRow rows[2];
    Facts facts;
  } golden[] = {
      {"luby",
       {{3, 10, 1113, 17640, 18, true, 39, 39},
        {4, 9, 1031, 16796, 18, true, 36, 36}},
       {{"undecided", 0}}},
      {"nmis",
       {{3, 34, 2821, 24984, 10, true, 43, 43},
        {4, 31, 3446, 30262, 10, true, 44, 44}},
       {{"undecided", 0}}},
      {"maxis-alg2",
       {{3, 14, 1392, 17665, 18, true, 40, 2588},
        {4, 10, 1412, 17713, 18, true, 39, 2490}},
       {{"undecided", 0}}},
      {"maxis-alg3",
       {{3, 54, 2871, 29179, 12, true, 36, 2311},
        {4, 54, 2871, 29179, 12, true, 36, 2311}},
       {{"colors", 13}, {"coloring_rounds", 45}}},
      {"mwm-lr",
       {{3, 28, 4788, 354312, 75, true, 50, 4081},
        {4, 20, 4710, 348540, 75, true, 50, 3960}},
       {}},
      {"mwm-lr-det",
       {{3, 105, 17622, 430833, 46, true, 52, 4057},
        {4, 105, 17622, 430833, 46, true, 52, 4057}},
       {{"colors", 23}, {"coloring_rounds", 71}}},
      {"mcm-2eps",
       {{3, 38, 7581, 295659, 52, true, 57, 57},
        {4, 30, 6477, 252603, 52, true, 56, 56}},
       {{"super_rounds", 19}, {"undecided_edges", 0}}},
      {"mwm-2eps",
       {{3, 64, 1005, 39195, 52, true, 54, 4344},
        {4, 86, 1023, 39897, 52, true, 54, 4483}},
       {{"rounds_parallel", 58}}},
      {"mcm-1eps",
       {{3, 879828, 0, 0, 0, true, 58, 58},
        {4, 215850, 0, 0, 0, true, 59, 59}},
       {{"stages", 64}, {"deactivated", 8}}},
      {"proposal",
       {{3, 41, 195, 852, 4, true, 48, 48},
        {4, 46, 245, 1056, 4, true, 51, 51}},
       {}},
  };
  ASSERT_EQ(std::size(golden), service::algorithms().size());
  std::size_t i = 0;
  for (const service::Algorithm& a : service::algorithms()) {
    ASSERT_EQ(golden[i].algo, a.name);
    service::BatchServer server({2});
    server.submit(registry_spec(a.name, 2));
    const auto result = server.serve();
    ASSERT_EQ(result.jobs.at(0).rows.size(), 2u) << a.name;
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(result.jobs[0].rows[r], golden[i].rows[r])
          << a.name << " run " << r;
    }

    // Collecting the detail describes the row without changing it.
    service::RunDetail detail;
    service::BatchOptions opts;
    opts.detail = &detail;
    service::BatchServer single(opts);
    single.submit(registry_spec(a.name, 1));
    EXPECT_EQ(single.serve().jobs.at(0).rows.at(0), golden[i].rows[0])
        << a.name;
    EXPECT_EQ(detail.solution.size(), golden[i].rows[0].solution_size)
        << a.name;
    EXPECT_EQ(detail.facts, golden[i].facts) << a.name;
    ++i;
  }
}

TEST(AlgorithmRegistry, RoundCapOnTheColoringPhaseServesCutRows) {
  // rounds=3 stops maxis-alg3 inside its Linial coloring phase. That used
  // to fail the whole batch; a cut run is a row with completed=0.
  service::BatchServer server({2});
  server.submit(service::parse_job_line(
      "gen=gnp:120:0.05 gseed=3 algo=maxis-alg3 seeds=1:2 rounds=3"));
  const auto result = server.serve();
  ASSERT_EQ(result.jobs.at(0).rows.size(), 2u);
  for (const service::RunRow& row : result.jobs[0].rows) {
    EXPECT_LE(row.rounds, 3u);
    EXPECT_FALSE(row.completed);
  }
}

TEST(AlgorithmRegistry, EveryEntryRunsUnderTheJobsPolicyAndRoundCap) {
  // policy= and rounds= bind every phase of every algorithm, so none of
  // them may be ignored by any registry entry.
  const std::uint32_t cap = sim::BandwidthPolicy::congest(1).cap_bits(120);
  for (const service::Algorithm& a : service::algorithms()) {
    SCOPED_TRACE(std::string(a.name));
    const auto serve = [&](const std::string& extra_keys) {
      service::BatchServer server({2});
      server.submit(registry_spec(a.name, 2, extra_keys));
      return server.serve().jobs.at(0).rows;
    };
    const auto base = serve("");

    // LOCAL only lifts the bandwidth check.
    EXPECT_EQ(serve("policy=local"), base);

    // congest:1 allows 8 bits per edge per round here: a run either stays
    // within them or fails with a CONGEST error.
    try {
      for (const service::RunRow& row : serve("policy=congest:1")) {
        EXPECT_LE(row.max_edge_bits, cap);
      }
    } catch (const EnsureError& e) {
      EXPECT_NE(std::string(e.what()).find("CONGEST"), std::string::npos)
          << e.what();
    }

    // rounds=3 caps the row's total rounds; a run it cuts is a row with
    // completed=0.
    const auto capped = serve("rounds=3");
    ASSERT_EQ(capped.size(), base.size());
    for (std::size_t r = 0; r < base.size(); ++r) {
      EXPECT_LE(capped[r].rounds, 3u) << "run " << r;
      if (base[r].rounds <= 3) {
        EXPECT_EQ(capped[r], base[r]) << "run " << r;
      } else {
        EXPECT_FALSE(capped[r].completed) << "run " << r;
      }
    }

    // The phases share the cap: a cap the run just fits changes nothing,
    // and one round less cuts it.
    for (const service::RunRow& row : base) {
      const auto run_capped = [&](std::uint32_t cap) {
        service::JobSpec spec = registry_spec(a.name, 1);
        spec.first_seed = row.seed;
        spec.max_rounds = cap;
        service::BatchServer server({1});
        server.submit(spec);
        return server.serve().jobs.at(0).rows.at(0);
      };
      EXPECT_EQ(run_capped(row.rounds), row);
      const service::RunRow cut = run_capped(row.rounds - 1);
      EXPECT_LT(cut.rounds, row.rounds) << "seed " << row.seed;
      EXPECT_FALSE(cut.completed) << "seed " << row.seed;
    }
  }
}

/// The message of the EnsureError `spec` fails with, or "" if it serves.
std::string failure_of(const service::JobSpec& spec) {
  service::BatchServer server({1});
  server.submit(spec);
  try {
    server.serve();
  } catch (const EnsureError& e) {
    return e.what();
  }
  return "";
}

TEST(AlgorithmRegistry, SubRunsOnDerivedGraphsAreCappedByTheJobGraphsN) {
  // mwm-lr-det's Linial phase runs on the explicit line graph (one node per
  // edge of the job graph), yet its cap is the job graph's: 8 bits at
  // congest:1 for n = 120, where the line graph's own n would give 9.
  ASSERT_EQ(sim::BandwidthPolicy::congest(1).cap_bits(120), 8u);
  const std::string det =
      failure_of(registry_spec("mwm-lr-det", 1, "policy=congest:1"));
  EXPECT_NE(det.find("CONGEST violation"), std::string::npos) << det;
  EXPECT_NE(det.find("(cap 8)"), std::string::npos) << det;

  // mwm-2eps runs NMM on compact bucket graphs of a few hundred nodes;
  // they keep the cap of the job graph's n = 1500 (11 bits per unit of
  // the multiplier), so NMM's 52-bit partial aggregates fit congest:5.
  const std::string bucketed = "gen=gnp:1500:0.005 gseed=1 algo=mwm-2eps ";
  EXPECT_EQ(failure_of(service::parse_job_line(bucketed + "policy=congest:5")),
            "");
  const std::string tight =
      failure_of(service::parse_job_line(bucketed + "policy=congest:1"));
  EXPECT_NE(tight.find("CONGEST cap is 11"), std::string::npos) << tight;
}

TEST(AlgorithmRegistry, AggregationRowsReportEverySuperRoundToTheObserver) {
  // mwm-lr and mcm-2eps are one line-aggregation run each: the observer's
  // samples add up to the row, and the last one is taken at its last round.
  for (const std::string_view name : {"mwm-lr", "mcm-2eps"}) {
    SCOPED_TRACE(std::string(name));
    const service::ResolvedJob job =
        service::resolve_job(registry_spec(name, 1));
    std::vector<sim::RoundSample> samples;
    sim::RunOptions opts = job.spec.run_options(3);
    opts.observer = [&](const sim::RoundSample& s) { samples.push_back(s); };
    const service::RunRow row = job.algorithm->run(job, opts, nullptr);

    ASSERT_GE(samples.size(), 2u);
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    for (const sim::RoundSample& s : samples) {
      messages += s.messages;
      bits += s.bits;
    }
    EXPECT_EQ(messages, row.messages);
    EXPECT_EQ(bits, row.total_bits);
    EXPECT_EQ(samples.front().round, 0u);
    EXPECT_EQ(samples.back().round, row.rounds);
    EXPECT_EQ(samples.back().nodes_halted, job.graph.num_edges());

    // Observing does not change the row.
    service::BatchServer server({1});
    server.submit(registry_spec(name, 1));
    EXPECT_EQ(server.serve().jobs.at(0).rows.at(0), row);
  }
}

TEST(AlgorithmRegistry, DetailNeedsExactlyOneRun) {
  service::RunDetail detail;
  service::BatchOptions opts;
  opts.detail = &detail;
  service::BatchServer server(opts);
  server.submit(registry_spec("luby", 2));
  EXPECT_THROW(server.serve(), EnsureError);
}

}  // namespace
}  // namespace distapx
